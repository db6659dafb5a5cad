"""Safeguarded scalar bisection for the package's bracketed scalar searches.

The zero-rate KL multiplier and the rare KL stationary points that no closed
form reaches are found on sign-change brackets, so a single bisection
routine with fixed stopping semantics (relative bracket width 1e-14 or 200
iterations, whichever first) keeps tolerance behaviour uniform. Endpoint
function values may be supplied by the caller when an endpoint itself is
outside the evaluable domain (e.g. a pole with known sign); only interior
midpoints are then evaluated.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError

__all__ = ["bisect_root"]

DEFAULT_RTOL = 1e-14
DEFAULT_MAX_ITER = 200


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = 0.0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Return a root of ``f`` inside the sign-change bracket ``[lo, hi]``.

    Parameters
    ----------
    f : callable
        Continuous function with ``sign(f(lo)) != sign(f(hi))``.
    lo, hi : float
        Bracket endpoints, ``lo < hi``.
    f_lo, f_hi : float, optional
        Endpoint values if already known or not safely evaluable; only the
        sign is used. Infinities are accepted.
    rtol, atol : float
        Stop once ``hi - lo <= rtol*max(|lo|, |hi|) + atol``.
    max_iter : int
        Iteration budget; exceeding it raises :class:`ConvergenceError`.

    Raises
    ------
    ConvergenceError
        If the endpoints do not bracket a sign change, or the bracket fails
        to reach the stopping width within ``max_iter`` iterations.
    """
    if not lo < hi:
        raise ConvergenceError("empty bracket", lo=lo, hi=hi)
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    s_lo = math.copysign(1.0, f_lo)
    if s_lo == math.copysign(1.0, f_hi):
        raise ConvergenceError(
            "no sign change over bracket", lo=lo, hi=hi, f_lo=f_lo, f_hi=f_hi
        )
    for _ in range(max_iter):
        if hi - lo <= rtol * max(abs(lo), abs(hi)) + atol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # bracket already spans adjacent floats
            return mid if lo < mid <= hi else 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if math.copysign(1.0, f_mid) == s_lo:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        "bisection iteration budget exhausted",
        lo=lo,
        hi=hi,
        width=hi - lo,
        max_iter=max_iter,
    )
