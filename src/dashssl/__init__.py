"""Semi-supervised training with a dynamically decaying selection threshold."""

from .errors import ConfigError, DashError, DivergenceError, InfeasibleConstantsError

__all__ = [
    "ConfigError",
    "DashError",
    "DivergenceError",
    "InfeasibleConstantsError",
]

__version__ = "0.1.0"
