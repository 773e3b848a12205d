"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid simulation or experiment configuration."""


class BudgetExceededError(RuntimeError):
    """An enumeration or iteration guard was hit before the operation could finish.

    ``guard`` names the limit that fired so callers (and the CLI) can report it.
    """

    def __init__(self, message, *, guard=None):
        super().__init__(message)
        self.guard = guard
