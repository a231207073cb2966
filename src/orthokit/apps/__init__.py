"""Applications built on the factorization kernel: polynomial fitting, PCA,
image compression/denoising, text summarization, and digit classification."""

from . import digits, fitting, image, pca, text
from .digits import *
from .fitting import *
from .image import *
from .pca import *
from .text import *

__all__ = digits.__all__ + fitting.__all__ + image.__all__ + pca.__all__ + text.__all__
