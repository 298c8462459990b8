"""Exact rank and switching experiments on d-regular 0/1 matrices.

The package studies square 0/1 matrices with exactly ``d`` ones in every
row and every column: construction and validation (:mod:`dreglab.matrix`),
the simple-switching move and its combinatorics (:mod:`dreglab.switching`),
uniform and Markov-chain samplers plus exhaustive enumeration
(:mod:`dreglab.sampler`), exact rational/modular rank and kernel tools
(:mod:`dreglab.linalg`), checkable statements about how switchings move
rank (:mod:`dreglab.verifiers`), and seeded Monte Carlo grids with a CLI
(:mod:`dreglab.experiment`, :mod:`dreglab.cli`).

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import errors, experiment, linalg, matrix, sampler, switching, verifiers
from .errors import *
from .matrix import *
from .switching import *
from .linalg import *
from .sampler import *
from .verifiers import *
from .experiment import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *matrix.__all__,
    *switching.__all__,
    *linalg.__all__,
    *sampler.__all__,
    *verifiers.__all__,
    *experiment.__all__,
]
