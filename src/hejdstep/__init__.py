"""Semi-analytical pricing of geometric down-and-out step call options under
hyper-exponential jump-diffusion markets, with maturity randomization,
Gaver-Stehfest inversion, an early-exercise diffusion/jump split, and an
independent Monte-Carlo oracle."""

from .errors import (
    AmbiguousBoundaryError,
    BracketError,
    BudgetError,
    ConfigError,
    ConvergenceError,
    HejdStepError,
    NoBoundaryError,
    OrderError,
    PoleError,
    SingularSystemError,
)
from .inversion import (
    DEFAULT_GS_ORDER,
    QUANTITIES,
    gs_invert,
    gs_weights,
    price_summary,
    price_time_domain,
)
from .model import (
    DownOutStepSpec,
    HejdModel,
    dual_model,
    laplace_exponent,
)
from .montecarlo import (
    DualityReport,
    McEstimate,
    PathConfig,
    mc_euro_step_price,
    simulate_terminal,
    verify_duality,
)
from .pricing import (
    MrAmericanSolution,
    MrEuropeanSolution,
    eval_american_mr,
    eval_eep_mr,
    eval_eep_split_mr,
    eval_european_mr,
    solve_american_mr,
    solve_european_mr,
)
from .roots import RootSet, find_roots

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "HejdModel", "DownOutStepSpec",
    "laplace_exponent", "dual_model",
    # roots
    "RootSet", "find_roots",
    # pricing
    "MrEuropeanSolution", "MrAmericanSolution",
    "solve_european_mr", "eval_european_mr", "solve_american_mr",
    "eval_eep_mr", "eval_eep_split_mr", "eval_american_mr",
    # inversion
    "gs_weights", "gs_invert", "price_time_domain", "price_summary",
    "QUANTITIES", "DEFAULT_GS_ORDER",
    # monte carlo
    "PathConfig", "McEstimate", "DualityReport",
    "simulate_terminal", "mc_euro_step_price", "verify_duality",
    # errors
    "HejdStepError", "ConfigError", "PoleError",
    "BracketError", "ConvergenceError", "SingularSystemError",
    "NoBoundaryError", "AmbiguousBoundaryError", "OrderError", "BudgetError",
]
