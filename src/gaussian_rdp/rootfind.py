"""Safeguarded Newton iteration for the package's scalar equations.

Two scalar equations remain once the per-component maps are in closed form:
the zero-rate perception boundary (``model.zero_rate_reconstruction``, KL
metric) and the distortion equation at a perception budget of exactly zero
(``solver``).  Both are posed as a decreasing function of one log-scale
variable and solved here, so they share one stopping rule: Newton steps
inside a sign bracket that every evaluation tightens, with a bisection step
for any step that leaves it.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError

__all__ = ["bisect_root"]

_RTOL = 1e-14
_MAX_ITER = 200


def bisect_root(f: Callable[[float], tuple[float, float]], x0: float) -> float:
    """Return the root of the decreasing function ``f``, starting at ``x0``.

    ``f(x)`` returns the pair ``(value, slope)``.  Each evaluation moves the
    sign bracket, which starts as ``(-inf, inf)``: a positive value raises
    its lower end to ``x``, a negative one lowers its upper end.  The
    Newton step ``-value/slope`` is taken when it stays strictly inside the
    bracket and replaced by the bracket's midpoint otherwise.  A decreasing
    ``f`` with a negative slope always steps toward its root, so a step can
    only leave the bracket through an end that is already finite.  The
    search stops once a step, or a bracket about to be bisected, is at most
    ``1e-14*max(1, |x|)`` wide.

    Raises
    ------
    ConvergenceError
        If the iteration has not stopped after 200 evaluations.
    """
    lo, hi = -math.inf, math.inf
    x = x0
    for _ in range(_MAX_ITER):
        value, slope = f(x)
        if value > 0.0:
            lo = x
        elif value < 0.0:
            hi = x
        else:
            return x
        step = -value / slope
        nxt = x + step
        tol = _RTOL * max(1.0, abs(x))
        if abs(step) <= tol:
            return nxt
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if hi - lo <= tol:
                return nxt
        x = nxt
    raise ConvergenceError(
        "root iteration budget exhausted", x=x, lo=lo, hi=hi, max_iter=_MAX_ITER
    )
