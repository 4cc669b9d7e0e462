"""Duals carrying several tangents at once against one tangent at a time.

A dual whose tangent is a (4,) + shape array carries four directional
derivatives through one evaluation.  Each operation must give the value of
the one-direction evaluations bit for bit, and each tangent row the
derivative of its direction, equal up to the sign of zero: a direction whose
tangent is zero is evaluated on the plain value, where +, - and * with a zero
tangent round the same but may give -0.0 for 0.0.
"""

import operator

import numpy as np
import pytest

from hyposc import duals
from hyposc.duals import Dual, _fill, guarded

N = 7
RNG = np.random.default_rng(12)
X = np.array([1.3, -0.7, 0.4, -2.1, 0.9, 1.7, -0.2])
Y = np.array([0.6, 1.9, -1.2, 0.3, -0.8, 2.4, 1.1])
ONE_HOT = np.eye(4)[:, :, None] * np.ones(N)  # ONE_HOT[j] seeds direction j
DENSE = RNG.uniform(-2.0, 2.0, (4, N))  # no tangent row is zero


def _narrow(x, k):
    """Direction k of a wide dual: plain where its tangent row is all zero."""
    if not isinstance(x, Dual):
        return x
    row = np.asarray(x.im)[k]
    return Dual(x.re, row) if np.any(row) else x.re


def _check(op, *args):
    wide = op(*args)
    for k in range(4):
        narrow = op(*(_narrow(a, k) for a in args))
        re = narrow.re if isinstance(narrow, Dual) else narrow
        im = narrow.im if isinstance(narrow, Dual) else 0.0
        got_re, want_re = np.broadcast_arrays(np.asarray(wide.re, float), np.asarray(re, float))
        assert got_re.tobytes() == want_re.tobytes(), k
        row = np.asarray(wide.im)[k]
        assert np.array_equal(row, np.broadcast_to(im, row.shape)), k


@pytest.mark.parametrize("tangent", [ONE_HOT[0], DENSE], ids=["one_hot", "dense"])
@pytest.mark.parametrize("fn", [
    operator.neg, lambda x: x % 1.5, lambda x: x**0, lambda x: x**1, lambda x: x**2,
    duals.sinh, duals.cosh, duals.sin, duals.cos,
], ids=["neg", "mod", "pow0", "pow1", "pow2", "sinh", "cosh", "sin", "cos"])
def test_unary_operations(fn, tangent):
    _check(fn, Dual(X, tangent))


def test_higher_powers_are_repeated_products():
    # a dual's x**3 is a repeated product, which numpy's power rounds
    # otherwise, so a direction that sees the plain value gets other bits
    _check(lambda x: x**3, Dual(X, DENSE))
    cube = Dual(X, ONE_HOT[0])**3
    assert np.array_equal(cube.re, (X * X) * X)
    assert not np.array_equal(cube.re, X**3)


@pytest.mark.parametrize("fn", [
    lambda x: x**-1, lambda x: x**-2, lambda x: 2.5 / x, lambda x: Y / x,
], ids=["pow-1", "pow-2", "rtruediv_float", "rtruediv_array"])
def test_operations_with_the_dual_as_denominator(fn):
    # a denominator carries a tangent in every direction, or in none
    _check(fn, Dual(X, DENSE))


@pytest.mark.parametrize("fn", [
    operator.add, operator.sub, operator.mul,
    lambda x, y: x + 2.0 * y - x * y + y * x,
    lambda x, y: (x * y) / Y,
], ids=["add", "sub", "mul", "mixed", "div_by_plain"])
@pytest.mark.parametrize("tangents", [(ONE_HOT[0], ONE_HOT[1]), (ONE_HOT[2], DENSE)],
                         ids=["one_hot_pair", "one_hot_dense"])
def test_binary_operations(fn, tangents):
    x, y = Dual(X, tangents[0]), Dual(Y, tangents[1])
    _check(fn, x, y)
    _check(fn, x, Y)  # Dual <op> array
    _check(fn, X, y)  # array <op> Dual, through the reflected operators
    _check(fn, x, 0.5)
    _check(fn, 0.5, y)


def test_division_by_a_dual():
    _check(operator.truediv, Dual(X, DENSE), Dual(Y, DENSE))
    # a numerator without tangent in some direction: Dual/Dual rounds unlike
    # the plain/Dual division of that direction alone, which is why no
    # denominator may carry a tangent of the wide pass
    wide = Dual(X, ONE_HOT[3]) / Dual(Y, DENSE)
    narrow = X / Dual(Y, DENSE[0])
    assert np.array_equal(wide.re, narrow.re)
    assert not np.array_equal(wide.im[0], narrow.im)


def test_float_values_with_array_tangents():
    x = Dual(0.8, np.eye(4)[1])
    y = Dual(-1.4, np.eye(4)[2])
    for fn in (operator.add, operator.sub, operator.mul):
        _check(fn, x, y)
    for fn in (duals.sinh, duals.cosh, duals.sin, duals.cos, operator.neg,
               lambda v: v % 0.5):
        _check(fn, x)
    _check(lambda v: 1.0 / v, Dual(0.8, DENSE[:, 0]))


def test_guarded_fills_unused_zero_rows_of_every_tangent():
    re = X.copy()
    re[[1, 4]] = 0.0
    used = np.ones(N, dtype=bool)
    used[[1, 4]] = False
    den = Dual(re, DENSE)
    _check(lambda d: guarded(d, used, "zero"), den)
    out = guarded(den, used, "zero")
    assert np.array_equal(out.re[[1, 4]], [1.0, 1.0])
    assert np.array_equal(out.im[:, [1, 4]], np.zeros((4, 2)))
    used[4] = True
    with pytest.raises(ValueError, match="zero"):
        guarded(den, used, "zero")


def test_fill_masks_every_tangent_row():
    mask = X < 0.0
    x = Dual(X, DENSE)
    _check(lambda v: _fill(v, mask, 3.0), x)
    out = _fill(x, mask, 3.0)
    assert out.im.shape == (4, N)
    assert np.array_equal(out.im[:, mask], np.zeros((4, int(mask.sum()))))
    nested = _fill(Dual(x, 1.0), mask, 3.0)
    assert np.array_equal(nested.re.im[:, mask], np.zeros((4, int(mask.sum()))))
