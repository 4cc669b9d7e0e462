"""The bracket algebra in exact rational arithmetic.

The product's `ambient_generators` and `df_components` run unmodified on
`oracles.Exact`, at rational states exactly on the shell, under the ambient
canonical bracket.  Every relation row the sweeps gate on holds with residual
exactly 0, every flagged row fails, and the integrals' gradients have rank
exactly 5.  The (omega, R) sets are dyadic, so the floats the kernels read
(omega^2 R^2, R^2) are exact.
"""

import random
from fractions import Fraction

import pytest

from hyposc.poisson import _DD_TABLE, _DL_TABLE, _FITTED_TABLE, _FLAGGED_TABLE, _SO22_TABLE
from hyposc.regimes import ModelParams
from oracles import Exact, exact_bracket, exact_rank, exact_values, shell_state

SETS = ((1.0, 1.0), (0.5, 3.0), (1024.0, 2.0**-10), (2.0**-10, 1024.0))
N_STATES = 8
TENSOR = ("Lt1", "Lt2", "Lt3", "D11", "D12", "D13", "D22", "D23", "D33")
GENERATORS = ("N1", "N2", "N3", "L1", "L2", "L3")


def _states(omega, radius):
    """(values, w2, iR2) at N_STATES rational shell states."""
    params = ModelParams(omega, radius)
    w2, iR2 = Exact(Fraction(omega) ** 2), Exact(1 / Fraction(radius) ** 2)
    rng = random.Random(f"{omega}-{radius}")
    for _ in range(N_STATES):
        y = shell_state(rng, radius)
        z, p = [e.v for e in y[:4]], [e.v for e in y[4:]]
        assert z[0] ** 2 + z[1] ** 2 - z[2] ** 2 - z[3] ** 2 == Fraction(radius) ** 2
        assert sum(a * b for a, b in zip(z, p)) == 0
        yield exact_values(y[:4], y[4:], params), w2, iR2


def _residuals(rows, v, w2, iR2):
    return [Exact(exact_bracket(v[a], v[b])) - fn(v, w2, iR2) for a, b, _, fn in rows]


@pytest.mark.parametrize("omega, radius", SETS)
def test_relation_rows_hold_exactly(omega, radius):
    gated = _SO22_TABLE + _DL_TABLE + _DD_TABLE + _FITTED_TABLE
    for v, w2, iR2 in _states(omega, radius):
        assert [r.v for r in _residuals(gated, v, w2, iR2)] == [0] * len(gated)
        assert all(r.v != 0 for r in _residuals(_FLAGGED_TABLE, v, w2, iR2))


@pytest.mark.parametrize("omega, radius", SETS)
def test_integrals_have_gradient_rank_five(omega, radius):
    for v, _, _ in _states(omega, radius):
        assert exact_rank([v[name].d for name in TENSOR]) == 5
        assert exact_rank([v[name].d for name in GENERATORS]) == 5
