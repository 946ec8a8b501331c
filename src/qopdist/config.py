"""Package-wide tolerances and the QOPDIST_DEFAULT_TOL override."""

from __future__ import annotations

import math
import os

from .errors import ValidationError

# Hermiticity / positivity / normalization cuts used by the type validators.
TOL_HERM = 1e-10
TOL_PSD = 1e-10
TOL_TRACE = 1e-10
TOL_ORTHO = 1e-10
# Occurrence probabilities below this are treated as "the branch did not occur".
TOL_PROB = 1e-12


def default_tol() -> float:
    """Global absolute tolerance, overridable via QOPDIST_DEFAULT_TOL.

    Raises ValidationError when the variable is not a finite number >= 0.
    """
    raw = os.environ.get("QOPDIST_DEFAULT_TOL", "1e-9")
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"QOPDIST_DEFAULT_TOL must be a finite number >= 0, got {raw!r}")
    return tol
