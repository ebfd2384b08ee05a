"""Exception types shared across the toolkit, and the check of parameter arrays."""

import numpy as np


class OcckitError(Exception):
    """Base class for toolkit errors."""


class ConfigError(OcckitError):
    """Invalid configuration (bad hyperparameters, inconsistent shapes)."""


def check_arrays(obj, shapes: dict) -> None:
    """Make each field ``name`` of ``obj`` a float64 array; ConfigError
    unless it has shape ``shapes[name]`` and is finite. An array that is
    float64 already is kept, not copied, so views stay views."""
    for name, shape in shapes.items():
        arr = np.asarray(getattr(obj, name), dtype=np.float64)
        setattr(obj, name, arr)
        if arr.shape != shape:
            raise ConfigError(f"{name} must have shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{name} must be finite")


class DataError(OcckitError):
    """Malformed or missing input data (files, grids, clouds)."""


class NumericalError(OcckitError):
    """Non-finite values encountered during computation."""
