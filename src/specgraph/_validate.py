"""The input rules that every layer calls.  Each scalar rule checks type and
range in one step, so a NaN, an infinity or a bool gets the range wording.
Nothing here imports specgraph, so any module can call it without an import
cycle."""

import math
import numbers
import sys

import numpy as np


def real(name, x, zero_ok=False, at_most=math.inf):
    """float(x) for a finite real x (no bool), > 0 (or >= 0 if zero_ok), <= at_most."""
    # false for nan and inf, and exact for an int too large for a float
    if not (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max
            and (x > 0 or zero_ok and x == 0) and x <= at_most):
        kind = "nonnegative" if zero_ok else "positive"
        if at_most < math.inf:
            kind += f" and at most {at_most:g}"
        raise ValueError(f"{name} must be finite and {kind}, got {x!r}")
    return float(x)


def integer(name, x, low=-math.inf):
    """int(x), if x is an integer but not a bool, and at least low."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return at_least(name, int(x), low)


def at_least(name, x, low):
    """x, unless it is below low or NaN."""
    if not x >= low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {x!r}")
    return x


def integers(name, x):
    """x as an int64 array, if it is empty or has an integer dtype: the int64
    cast alone would truncate floats and take bools and digit strings.  An
    entry beyond int64 raises OverflowError."""
    dtype = np.asarray(x).dtype  # numpy makes an empty list float64
    x = np.asarray(x, dtype=np.int64)
    if x.size and dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {dtype}")
    return x
