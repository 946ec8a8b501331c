"""Package-wide tolerances, the QOPDIST_DEFAULT_TOL override and the
checks of tolerance, count, real-number and path arguments."""

from __future__ import annotations

import math
import numbers
import operator
import os

import numpy as np

from .errors import ValidationError

# Hermiticity / positivity / normalization cuts used by the type validators.
TOL_HERM = 1e-10
TOL_PSD = 1e-10
TOL_TRACE = 1e-10
TOL_ORTHO = 1e-10
# Occurrence probabilities below this are treated as "the branch did not occur".
TOL_PROB = 1e-12
# T eigenvalues within this of 1 (of 0) are unit (zero): the maximizer shape.
TOL_UNIT_ZERO = 1e-8
# Cut of the library's own verdicts: BoundReport.holds (Theorems 3 and 4) and
# DominanceResult.dominance_holds and .moments_ok.  Suites judge with their slack.
TOL_BOUND = 1e-9


def _as_tol(raw) -> float | None:
    """``raw`` as a float, or None when it is not a finite number >= 0."""
    try:
        tol = float(raw)
    except (TypeError, ValueError):
        return None
    return tol if math.isfinite(tol) and tol >= 0.0 else None


def default_tol() -> float:
    """Global absolute tolerance, overridable via QOPDIST_DEFAULT_TOL.

    Raises ValidationError when the variable is not a finite number >= 0.
    """
    raw = os.environ.get("QOPDIST_DEFAULT_TOL", "1e-9")
    tol = _as_tol(raw)
    if tol is None:
        raise ValidationError(f"QOPDIST_DEFAULT_TOL must be a finite number >= 0, got {raw!r}")
    return tol


def resolve_tol(tol) -> float:
    """``default_tol()`` for None, otherwise ``tol`` as a float.

    Every tolerance a caller passes goes through here; a value that is not
    a finite number >= 0 (NaN, infinite, negative, non-numeric) raises
    ValidationError, because comparisons against it would pass or fail
    regardless of the data.
    """
    if tol is None:
        return default_tol()
    checked = _as_tol(tol)
    if checked is None:
        raise ValidationError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return checked


def checked_index(name: str, value, least: int) -> int:
    """``value`` as an int when it is an integer (NumPy integers included)
    at or above ``least``: the one check of every count, dimension, rank,
    seed and moment order.

    Anything else, such as 2.5, NaN, "3" or True, raises ValidationError
    naming the argument, because a count must not be truncated, parsed or
    taken from a flag; so does an integer below ``least``.
    """
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if n < least:
                raise ValidationError(f"{name} must be >= {least}, got {n}")
            return n
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def checked_real(name: str, value) -> float:
    """``value`` as a float when it is a real number (NumPy reals
    included): the one type check of every scalar parameter that is not a
    count, such as a target distance, a probability or a fidelity.

    Anything else, such as "0.5", 0.5j, None or True, raises
    ValidationError naming the argument, so no string is parsed and no
    comparison ends in a TypeError.  NaN and infinities pass here; each
    caller's range check rejects them.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValidationError(f"{name} must be a real number, got {value!r}")


def checked_indices(name: str, values, least: int) -> np.ndarray:
    """``values`` as a 1-D array of integers at or above ``least``.

    An integer-dtype array passes in one comparison; any other sequence is
    checked entry by entry with ``checked_index``, so [2.5], [1, True] and,
    for ``least`` 1, [0] raise its ValidationError.  An array of another
    shape, an empty list and an entry beyond the integer dtypes raise
    ValidationError too.
    """
    a = np.asarray(values)
    if a.ndim == 1 and not (isinstance(values, np.ndarray) and a.dtype.kind in "iu" and (a >= least).all()):
        a = np.array([checked_index(name, v, least) for v in values])
    if a.ndim != 1 or a.dtype.kind not in "iu":
        raise ValidationError(f"{name} must be a 1-D array of integers, got {values!r}")
    return a


def checked_path(path):
    """``path`` when it names a file: a ``str``, ``bytes`` or ``os.PathLike``.

    Anything else raises ValidationError before a file is opened; above
    all an int or a bool, which ``open`` would take as a file descriptor
    and close when done, so ``save_matrix(2, m)`` would write to stderr
    and shut it.
    """
    if isinstance(path, (str, bytes, os.PathLike)):
        return path
    raise ValidationError(f"path must be a str, bytes or os.PathLike, got {path!r}")
