"""Numerics laboratory for zonal kernels on spheres and their null-cone lifts.

Four layers: exact special-function evaluation (``special``), closed-form
leading asymptotics (``asymptotics``), the null-cone geometry with Monte
Carlo section bases and kernel oracles (``quadric``), and measurement
drivers with stable CSV/JSON output (``harness``).  The ``zonal`` console
script in ``cli`` fronts all of it.
"""

from . import asymptotics, harness, quadrature, quadric, special
from .asymptotics import *  # noqa: F403
from .harness import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .quadric import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *special.__all__,
    *asymptotics.__all__,
    *quadrature.__all__,
    *quadric.__all__,
    *harness.__all__,
]
