"""First-order dual numbers for forward-mode differentiation.

A ``Dual(re, im)`` carries a value and one directional derivative through
arithmetic and the handful of transcendental functions the observables need.
Components may be floats, numpy arrays (one entry per state, so a whole
batch is differentiated in one pass) or themselves ``Dual`` (nesting gives exact
second derivatives).

The module-level functions (``sinh``, ``cos``, ...) dispatch on type so the
same evaluator code runs on plain floats (through ``math``), on arrays
(through numpy) and on duals of either.
"""

import math
from dataclasses import dataclass

import numpy as np


def _real(x):
    """Descend to the underlying float or array of a (possibly nested) dual."""
    while isinstance(x, Dual):
        x = x.re
    return x


@dataclass(slots=True, eq=False)
class Dual:
    re: float
    im: float = 0.0

    # ndarray <op> Dual must defer to the reflected operators below instead
    # of broadcasting the dual as an object scalar
    __array_ufunc__ = None

    # ---- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.im + other.im)
        return Dual(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.im - other.im)
        return Dual(self.re - other, self.im)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.im + self.im * other.re)
        return Dual(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.re
            return Dual(self.re * inv, (self.im - self.re * inv * other.im) * inv)
        return Dual(self.re / other, self.im / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.re
        return Dual(other * inv, -other * inv * inv * self.im)

    def __neg__(self):
        return Dual(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("dual powers are integer-only")
        if n == 0:
            return Dual(1.0, 0.0 * self.im)
        if n < 0:
            return 1.0 / self.__pow__(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __mod__(self, m):
        # shift by a multiple of the (constant) modulus: derivative unchanged
        return Dual(self.re % m, self.im)


# ---- generic math ---------------------------------------------------------


def sinh(x):
    if isinstance(x, float):
        return math.sinh(x)
    if isinstance(x, Dual):
        return Dual(sinh(x.re), cosh(x.re) * x.im)
    if isinstance(x, np.ndarray):
        return np.sinh(x)
    return math.sinh(x)


def cosh(x):
    if isinstance(x, float):
        return math.cosh(x)
    if isinstance(x, Dual):
        return Dual(cosh(x.re), sinh(x.re) * x.im)
    if isinstance(x, np.ndarray):
        return np.cosh(x)
    return math.cosh(x)


def sin(x):
    if isinstance(x, float):
        return math.sin(x)
    if isinstance(x, Dual):
        return Dual(sin(x.re), cos(x.re) * x.im)
    if isinstance(x, np.ndarray):
        return np.sin(x)
    return math.sin(x)


def cos(x):
    if isinstance(x, float):
        return math.cos(x)
    if isinstance(x, Dual):
        return Dual(cos(x.re), -sin(x.re) * x.im)
    if isinstance(x, np.ndarray):
        return np.cos(x)
    return math.cos(x)


# ---- per-row guards -------------------------------------------------------


def nonzeroish(x):
    """True unless x is an exactly-zero plain number; per row for arrays.

    Duals count as nonzero even at value 0 so that seeded directions are
    differentiated through (a branch guarded by this predicate must stay on
    the generic path for the derivative to exist).
    """
    return True if isinstance(x, Dual) else x != 0.0


def any_row(mask) -> bool:
    """True when a (per-row) predicate holds for at least one row."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def guarded(den, used, message: str):
    """``den`` checked for use as a denominator in the rows where ``used``.

    Raises ``ValueError(message)`` when a row that uses it has an exactly
    zero (real part of the) denominator, which is exactly when the
    single-state call for that row raises.  In an array batch, rows that do
    not use it and sit at zero get 1 instead, so that their zero terms stay
    finite.
    """
    zero = _real(den) == 0.0
    if not isinstance(zero, np.ndarray):
        if used and zero:
            raise ValueError(message)
        return den
    if np.any(zero & used):
        raise ValueError(message)
    return _fill(den, zero, 1.0) if zero.any() else den


def _fill(x, mask, value):
    if isinstance(x, Dual):
        return Dual(_fill(x.re, mask, value), _fill(x.im, mask, 0.0))
    return np.where(mask, value, x)
