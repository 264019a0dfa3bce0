"""Lightweight argument-validation helpers shared across subpackages."""

from __future__ import annotations

import numpy as np

from repro.common.exceptions import ConfigurationError


def check_temperature_range(tmin: float, tmax: float) -> tuple[float, float]:
    """Validate a temperature schedule range ``0 <= tmin < tmax``."""
    lo = float(tmin)
    hi = float(tmax)
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ConfigurationError(f"temperatures must be finite, got ({tmin}, {tmax})")
    if lo < 0:
        raise ConfigurationError(f"tmin must be >= 0, got {tmin}")
    if hi <= lo:
        raise ConfigurationError(f"tmax must exceed tmin, got tmin={tmin}, tmax={tmax}")
    return lo, hi
