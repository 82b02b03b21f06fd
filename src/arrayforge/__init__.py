"""Design and evaluation of analog combining matrices for compressive arrays.

The library designs an M x N combining network for an N-element antenna
array by stochastic gradient descent on the discrepancy between the
compressed and uncompressed spatial correlation functions, and evaluates
designs via grid SCF error and the deterministic Cramer-Rao bound for 2D
direction-of-arrival estimation.  Each module's ``__all__`` declares its
public names; the package re-exports them.
"""

from . import array_model, crb_eval, harness, scf_objective, sgd_designer
from ._version import __version__
from .array_model import *
from .crb_eval import *
from .harness import *
from .scf_objective import *
from .sgd_designer import *

__all__ = [
    "__version__",
    *array_model.__all__,
    *scf_objective.__all__,
    *sgd_designer.__all__,
    *crb_eval.__all__,
    *harness.__all__,
]
