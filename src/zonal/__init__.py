"""Numerics laboratory for zonal kernels on spheres and their null-cone lifts.

Six layers: exact special-function evaluation (``special``), closed-form
leading asymptotics (``asymptotics``), polynomial-exact sphere and fiber
rules (``quadrature``), the null-cone geometry with Monte Carlo section
bases and kernel oracles (``quadric``), measurement drivers with stable
CSV/JSON output (``harness``), and the ``zonal`` console script (``cli``).
"""

import os

# Threaded BLAS splits the products of large cone bases differently per
# thread count, which moves the oracle's last digits.  One thread unless the
# caller chose otherwise; this acts only if numpy is not imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import asymptotics, harness, quadrature, quadric, special  # noqa: E402
from .asymptotics import *  # noqa: F403, E402
from .harness import *  # noqa: F403, E402
from .quadrature import *  # noqa: F403, E402
from .quadric import *  # noqa: F403, E402
from .special import *  # noqa: F403, E402

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *special.__all__,
    *asymptotics.__all__,
    *quadrature.__all__,
    *quadric.__all__,
    *harness.__all__,
]
