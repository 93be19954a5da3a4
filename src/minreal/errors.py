"""Shared exception types. Each docstring names the exit code that a
command-line front end is to map the type to; the package has none yet."""

import numbers


class ConfigError(ValueError):
    """Invalid configuration or hyperparameters (CLI exit code 2)."""


def check_int(name, value):
    """value as an int. A bool or a value of a non-integral type, such as
    2.0, is a ConfigError naming it; numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


class MissingArtifact(FileNotFoundError):
    """A required input file (dataset, checkpoint, mask) is absent (exit code 3)."""


class TrainingAbort(RuntimeError):
    """Non-finite loss or state encountered during training (exit code 4)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
