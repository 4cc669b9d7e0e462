"""Property tests: the array kernels against the single-state dataclass path,
and round trips of the single-state API.

Each batch holds one state per entry of its coordinate arrays; every entry
must equal what the dataclass API computes for that state alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposc.geometry import (
    EPS,
    ChartId,
    ChartPoint,
    ModelParams,
    PhaseState,
    embed,
    lift_coords,
    momentum_lift,
    momentum_project,
    phase_transition,
    unembed,
)
from hyposc.invariants import (
    IDENTITIES,
    ambient_generators,
    check_identities,
    df_components,
    evaluate_invariants,
    generators,
    identity_residuals,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

PARAMS = st.builds(ModelParams, st.floats(0.0, 3.0), st.floats(0.3, 3.0))
MOMENTUM = st.floats(-3.0, 3.0)
PHI = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
OUTER_ROW = st.tuples(st.floats(0.05, 2.5), st.floats(-2.0, 2.0), PHI,
                      MOMENTUM, MOMENTUM, MOMENTUM)
# inner states off chi = 0 and mu = 0, where angular momenta are singular
CHI = st.floats(0.05, 1.5) | st.floats(-1.5, -0.05)
INNER_ROW = st.tuples(CHI, st.floats(0.05, 2.0), PHI, MOMENTUM, MOMENTUM, MOMENTUM)
OUTER_CHARTS = st.sampled_from((ChartId.OUTER_PLUS, ChartId.OUTER_MINUS))
INNER_CHARTS = st.sampled_from((ChartId.INNER_PLUS, ChartId.INNER_MINUS))


def batches(charts, rows):
    return st.tuples(charts, st.lists(rows, min_size=1, max_size=8))


def _state(chart, row):
    q1, q2, phi, p1, p2, pphi = row
    return PhaseState(ChartPoint(chart, q1, q2, phi), p1, p2, pphi)


def _assert_rows(batch, single, rtol=1e-13):
    """Entry k of every batched quantity equals row k of the single-state
    results, relative to the size of that quantity over the batch."""
    batch = np.array(batch)
    single = np.array(single).T
    assert batch.shape == single.shape
    scale = np.maximum(1.0, np.max(np.abs(single), axis=1, keepdims=True))
    err = np.abs(batch - single) / scale
    assert np.all(err <= rtol), float(np.max(err))


def _check_batch(chart, rows, params):
    coords = np.array(rows).T
    states = [_state(chart, row) for row in rows]
    lifted = [momentum_lift(s, params) for s in states]
    invs = [evaluate_invariants(ph, params) for ph in lifted]

    y = lift_coords(chart, coords, params.radius)
    _assert_rows(y[:4], [embed(s.point, params).array for s in states])
    _assert_rows(y, [np.concatenate([ph.z.array, ph.momentum_array]) for ph in lifted])

    gens = ambient_generators(y[:4], y[4:])
    _assert_rows(gens, [inv.generators.n + inv.generators.l for inv in invs])

    d = df_components(y[:4], gens[:3], params)
    iu = np.triu_indices(3)
    _assert_rows(d, [inv.df[iu] for inv in invs])
    return states, gens


@SETTINGS
@given(batches(OUTER_CHARTS, OUTER_ROW), PARAMS)
def test_outer_batches_match_single_states(batch, params):
    chart, rows = batch
    states, gens = _check_batch(chart, rows, params)
    # the closed pseudo-spherical generators are an independent route
    closed = [generators(s, params) for s in states]
    _assert_rows(gens, [g.n + g.l for g in closed])


@SETTINGS
@given(batches(INNER_CHARTS, INNER_ROW), PARAMS)
def test_inner_batches_match_single_states(batch, params):
    _check_batch(*batch, params)


def _message(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("chart, pole, momenta", [
    (ChartId.OUTER_PLUS, (0.0, 0.3, 1.0), (0.5, 0.7, 0.0)),
    (ChartId.OUTER_MINUS, (0.0, 0.3, 1.0), (0.5, 0.0, -0.4)),
    (ChartId.INNER_PLUS, (0.0, 0.3, 1.0), (0.5, 0.7, 0.0)),
    (ChartId.INNER_MINUS, (0.4, 0.0, 1.0), (0.5, 0.0, 0.9)),  # mu = 0 axis
])
def test_batch_raises_where_a_single_state_raises(chart, pole, momenta):
    params = ModelParams(1.0, 2.0)
    row = pole + momenta
    rows = [(0.7, 0.2, 0.4, 0.1, -0.3, 0.8), row, (0.3, -0.5, 2.0, 1.0, 0.2, -0.6)]
    coords = np.array(rows).T
    single = _message(lambda: lift_coords(chart, row, params.radius))
    assert _message(lambda: lift_coords(chart, coords, params.radius)) == single
    if pole[0] == 0.0:
        with pytest.raises(ValueError):
            _state(chart, row)
    # the same row without angular momenta lifts, and equals the single state
    rows[1] = pole + (momenta[0], 0.0, 0.0)
    _check_batch(chart, rows, params)


# ---------------------------------------------------------------------------
# round trips of the single-state API
# ---------------------------------------------------------------------------


def _assert_states_equal(a, b, tol):
    """Same chart, coordinates (phi modulo 2 pi) and momenta within tol."""
    assert a.point.chart is b.point.chart
    dphi = math.remainder(a.point.phi - b.point.phi, 2.0 * math.pi)
    diffs = [a.point.q1 - b.point.q1, a.point.q2 - b.point.q2, dphi,
             a.p1 - b.p1, a.p2 - b.p2, a.pphi - b.pphi]
    scale = max(1.0, abs(a.p1), abs(a.p2), abs(a.pphi))
    assert max(abs(d) for d in diffs) <= tol * scale, diffs


def _check_round_trips(chart, row, params):
    state = _state(chart, row)
    z = embed(state.point, params)
    back = unembed(z, chart, params)
    _assert_states_equal(_state(chart, (back.q1, back.q2, back.phi) + row[3:]), state, 1e-11)

    ph = momentum_lift(state, params)
    _assert_states_equal(momentum_project(ph, chart, params), state, 1e-11)
    # an interior point's canonical chart is its own
    _assert_states_equal(phase_transition(state, params), state, 1e-11)

    inv = evaluate_invariants(ph, params)
    d = inv.df
    residuals, scale = identity_residuals(
        inv.hamiltonian, inv.free_hamiltonian, inv.generators,
        (d[0, 0], d[0, 1], d[0, 2], d[1, 1], d[1, 2], d[2, 2]), params)
    report = check_identities(inv, params)
    assert report.all_passed
    # rounding level: 4,000 random states reached 1,241 eps, against
    # tolerances of 1e-10 to 1e-9
    for (name, tol), r in zip(IDENTITIES, residuals):
        if tol is not None:
            assert r <= 1e4 * EPS * scale, (name, r, scale)


@SETTINGS
@given(OUTER_CHARTS, OUTER_ROW, PARAMS)
def test_outer_round_trips(chart, row, params):
    _check_round_trips(chart, row, params)


@SETTINGS
@given(INNER_CHARTS, INNER_ROW, PARAMS)
def test_inner_round_trips(chart, row, params):
    _check_round_trips(chart, row, params)
