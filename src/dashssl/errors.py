"""Exception types shared across the package."""


class DashError(Exception):
    """Base class for package-specific failures."""


class ConfigError(DashError):
    """A configuration file, override, or run setup is invalid."""


class DivergenceError(DashError):
    """A non-finite loss or parameter; metrics is the table of the steps before it."""

    def __init__(self, step: int, detail: str, metrics):
        self.step = step
        self.detail = detail
        self.metrics = metrics
        super().__init__(f"divergence at step {step}: {detail}")


class InfeasibleConstantsError(DashError):
    """The theoretical constants cannot be instantiated for the given inputs."""
