"""Shared exception types. Each docstring names the exit code that a
command-line front end is to map the type to; the package has none yet."""

import numbers


class ConfigError(ValueError):
    """Invalid configuration or hyperparameters (CLI exit code 2)."""


def check_int(name, value, minimum):
    """value as an int. A bool, a value of a non-integral type, such as 2.0,
    or one below minimum is a ConfigError naming it; numpy integers are
    accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def check_seed(name, value):
    """A ConfigError naming it unless value, or each item of a list or tuple
    value, is an integer >= 0 as check_int takes it: a seed that
    np.random.SeedSequence takes, bools excluded."""
    for v in value if isinstance(value, (list, tuple)) else [value]:
        check_int(name, v, 0)


class MissingArtifact(FileNotFoundError):
    """A required input file (dataset, checkpoint, mask) is absent (exit code 3)."""


class TrainingAbort(RuntimeError):
    """Non-finite loss or state encountered during training (exit code 4)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
