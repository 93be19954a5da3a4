"""Shared exception types, each naming the exit code that a command-line
front end is to map it to (the package has none yet), and the input checks
that raise them: check_int, check_seed, check_real and check_finite."""

import math
import numbers

import numpy as np


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


def check_real(name, value):
    """value as a float; a bool or a non-real value is a ConfigError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


# check_finite scans as many rows (first-axis slices) as fit in this many
# elements, at least one, at a time: np.isfinite's bool array is then 256 KiB,
# not the input's size (1.56 MB on 6 000 observations of 260 values).
FINITE_BLOCK_ELEMENTS = 1 << 18


def check_finite(label, value, error=ValueError):
    """value as a float64 array (no copy if it is one), or
    error("non-finite values in <label>") if it holds a NaN or an infinity.
    It is scanned a block of rows at a time (FINITE_BLOCK_ELEMENTS)."""
    arr = np.asarray(value, dtype=np.float64)
    rows = np.atleast_1d(arr)
    step = max(1, FINITE_BLOCK_ELEMENTS // max(1, math.prod(rows.shape[1:])))
    for start in range(0, rows.shape[0], step):
        if not np.isfinite(rows[start : start + step]).all():
            raise error(f"non-finite values in {label}")
    return arr


class MissingArtifact(FileNotFoundError):
    """A required input file (dataset, checkpoint, mask) is absent (exit code 3)."""


class TrainingAbort(RuntimeError):
    """Non-finite loss or state encountered during training (exit code 4)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
