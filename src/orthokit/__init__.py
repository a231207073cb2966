"""orthokit: dense orthogonal factorizations (Householder/Givens QR, column-
pivoted QR, two-phase SVD), least-squares solvers for full-rank and
rank-deficient systems, projector constructions, and SVD applications
(curve fitting, PCA, image compression, text summarization, digit
classification).

Each module's ``__all__`` is the one list of its public names, and the
package re-exports them all (every name in ``errors`` is public). The
function ``svd`` shadows its module here: reach the module through
``importlib.import_module("orthokit.svd")``."""

from .errors import *
from .matrix import *
from .reflectors import *
from .qr import *
from .projectors import *
from .svd import *
from .lstsq import *

__version__ = "0.1.0"
