"""Brent's method for a bracketed root of a scalar function.

A port of scipy.optimize.brentq (its C kernel brentq.c, after Brent,
*Algorithms for Minimization Without Derivatives*, 1973, ch. 4): the same
operations in the same order on IEEE doubles, so a root agrees with
scipy's bit for bit.  The argument checks and errors are scipy's too:
ValueError for a bracket whose ends have the same sign or a NaN value,
RuntimeError when maxiter iterations do not converge.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable

import numpy as np

__all__ = ["brentq"]

XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float = XTOL,
           rtol: float = RTOL, maxiter: int = MAXITER) -> float:
    """A root of f in [a, b] (either order), where f(a) and f(b) differ in
    sign, to |error| <= xtol + rtol |root|."""
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                stry = _step(xpre, xcur, xblk, fpre, fcur, fblk)
            except ZeroDivisionError:
                # C division: a zero divisor gives inf or nan, not an error
                with np.errstate(all="ignore"):
                    stry = float(_step(*map(np.float64, (xpre, xcur, xblk, fpre, fcur, fblk))))
            cap = abs(spre)
            if not cap < 3 * abs(sbis) - delta:
                cap = 3 * abs(sbis) - delta
            if 2 * abs(stry) < cap:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


def _step(xpre, xcur, xblk, fpre, fcur, fblk):
    """The interpolation step: secant when xpre == xblk, otherwise inverse
    quadratic."""
    if xpre == xblk:
        return -fcur * (xcur - xpre) / (fcur - fpre)
    dpre = (fpre - fcur) / (xpre - xcur)
    dblk = (fblk - fcur) / (xblk - xcur)
    return -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
