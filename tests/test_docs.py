import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # a name the quick start imports or calls and the package no longer has fails here
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})
