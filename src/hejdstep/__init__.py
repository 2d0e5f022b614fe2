"""Semi-analytical pricing of geometric down-and-out step call options under
hyper-exponential jump-diffusion markets, with maturity randomization,
Gaver-Stehfest inversion, an early-exercise diffusion/jump split, and an
independent Monte-Carlo oracle."""

from . import errors, inversion, model, montecarlo, pricing, roots
from .errors import *
from .inversion import *
from .model import *
from .montecarlo import *
from .pricing import *
from .roots import *

__version__ = "1.0.0"

# each module's __all__ declares its public names once; the package republishes them
__all__ = [
    "__version__",
    *model.__all__, *roots.__all__, *pricing.__all__,
    *inversion.__all__, *montecarlo.__all__, *errors.__all__,
]
