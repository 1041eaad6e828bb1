"""Run one Python command and fail when its peak resident set size exceeds a bound.

Usage: python .github/peak_rss.py BOUND_MB ARGS...

Runs the current interpreter with ARGS, discards its stdout, prints the
child's peak RSS from getrusage and exits 1 if it is above BOUND_MB.
"""
import resource
import subprocess
import sys

bound = float(sys.argv[1])
subprocess.run([sys.executable, *sys.argv[2:]], stdout=subprocess.DEVNULL, check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak:.1f} MB")
sys.exit(0 if peak <= bound else 1)
