"""Shared exception types. Each docstring names the exit code that a
command-line front end is to map the type to; the package has none yet."""


class ConfigError(ValueError):
    """Invalid configuration or hyperparameters (CLI exit code 2)."""


class MissingArtifact(FileNotFoundError):
    """A required input file (dataset, checkpoint, mask) is absent (exit code 3)."""


class TrainingAbort(RuntimeError):
    """Non-finite loss or state encountered during training (exit code 4)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
