import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from hyposc.dynamics import equations_of_motion
from hyposc.geometry import ChartId, ChartPoint, ModelParams, PhaseState
from hyposc.poisson import (
    D11,
    D12,
    D33,
    H_OSC,
    L1,
    L2,
    L3,
    L_SQ,
    LT3,
    N1,
    N2,
    P1,
    PHI,
    PPHI,
    Q1,
    Observable,
    bracket,
    jacobi_residual,
    sample_states,
    verify_df_algebra,
    verify_so22,
)


@pytest.fixture(scope="module")
def state():
    return PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.1, -0.4, 0.7), 0.5, 0.8, -0.6)


def test_canonical_pairs(state, params):
    npt.assert_allclose(bracket(Q1, P1, state, params), 1.0, rtol=1e-12)
    npt.assert_allclose(bracket(PHI, PPHI, state, params), 1.0, rtol=1e-12)
    npt.assert_allclose(bracket(Q1, PPHI, state, params), 0.0, atol=1e-12)
    npt.assert_allclose(bracket(Q1, PHI, state, params), 0.0, atol=1e-12)


def test_bracket_antisymmetry(state, params):
    for f, g in [(L1, N2), (D11, L2), (H_OSC, D33)]:
        a = bracket(f, g, state, params)
        b = bracket(g, f, state, params)
        npt.assert_allclose(a, -b, rtol=1e-9, atol=1e-12)


def test_rotation_subalgebra(params):
    for st in sample_states(50, seed=2):
        res = bracket(L1, L2, st, params) + L3(st, params)
        assert abs(res) < 1e-6


def test_hamiltonian_commutes_with_invariants(state, params):
    assert abs(bracket(H_OSC, L1, state, params)) < 1e-9
    assert abs(bracket(H_OSC, L_SQ, state, params)) < 1e-9
    assert abs(bracket(H_OSC, D33, state, params)) < 1e-9


def test_bracket_reproduces_flow(state, params):
    dot = equations_of_motion(state, params)
    npt.assert_allclose(bracket(Q1, H_OSC, state, params), dot.dq1, rtol=1e-9)
    npt.assert_allclose(bracket(PHI, H_OSC, state, params), dot.dphi, rtol=1e-9)
    npt.assert_allclose(bracket(P1, H_OSC, state, params), dot.dp1, rtol=1e-9, atol=1e-12)


def test_backends_agree(state, params):
    for f, g in [(L1, L2), (D11, D12), (H_OSC, D33)]:
        d = bracket(f, g, state, params, backend="dual")
        n = bracket(f, g, state, params, backend="fd")
        assert abs(d - n) < 1e-7 * max(1.0, abs(d))


def test_fd_only_observable(params):
    # an observable marked as numpy-only must fall back to finite differences
    raw = Observable(
        "z0", lambda st, par: float(np.cosh(st.point.q1)) * par.radius, supports_duals=False
    )
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.9, 0.1, 0.2), 0.3, 0.0, 0.0)
    val = bracket(raw, P1, st, params, backend="auto")
    npt.assert_allclose(val, math.sinh(0.9), rtol=1e-8)


def test_jacobi_identity(params):
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.3, 0.6, 1.9), -0.7, 0.4, 0.9)
    for trip in [(L1, L2, L3), (L1, N1, N2), (D11, L2, L3)]:
        assert abs(jacobi_residual(*trip, st, params)) < 1e-5


def test_sample_states_deterministic():
    a = sample_states(16, seed=42)
    b = sample_states(16, seed=42)
    assert [s.point.q1 for s in a] == [s.point.q1 for s in b]
    assert all(st.point.chart == ChartId.OUTER_PLUS for st in a)
    assert all(0.3 <= st.point.q1 <= 2.0 for st in a)


def test_verify_so22_report(params):
    rep = verify_so22(params, n_points=200, seed=7)
    assert rep.passed
    assert len(rep.pairs) == 15
    assert all(p.max_residual < 1e-6 for p in rep.pairs)
    lhs = {p.lhs for p in rep.pairs}
    assert "{L1, L2}" in lhs and "{N1, N2}" in lhs and "{L3, N3}" in lhs
    by_lhs = {p.lhs: p for p in rep.pairs}
    assert by_lhs["{L1, L2}"].rhs == "-L3"
    assert by_lhs["{L3, N3}"].rhs == "0"


def test_verify_df_algebra_report(params):
    rep = verify_df_algebra(params, n_points=24, seed=3)
    assert rep.passed  # flagged rows never gate
    flagged = [p for p in rep.pairs if p.flagged]
    assert len(flagged) == 3
    assert all(p.max_residual > 1.0 for p in flagged)  # printed forms are inconsistent
    fitted = [p for p in rep.pairs if "fitted" in p.note]
    assert len(fitted) == 3
    assert all(p.max_residual < 1e-9 for p in fitted)
    regular = [p for p in rep.pairs if not p.flagged]
    assert all(p.max_residual < 1e-6 for p in regular)
    assert all(p.backend_gap < 1e-7 for p in regular if p.backend_gap is not None)


def test_report_json_round_trip(params, tmp_path):
    rep = verify_so22(params, n_points=32, seed=1)
    out = tmp_path / "so22.json"
    rep.to_json(str(out))
    data = json.loads(out.read_text())
    assert data["label"] == "so22"
    assert data["passed"] is True
    assert len(data["pairs"]) == 15
    assert {"bracket", "expected", "max_residual", "passed"} <= set(data["pairs"][0])


def test_bracket_rejects_singular_state(params):
    # pole state: centrifugal gradients blow up for angular observables
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.0, 0.0, 0.0), 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        bracket(L_SQ, H_OSC, st, params)


def test_batched_sweeps_match_single_state_loop(params):
    # the sweeps' batched residuals against bracket() state by state
    from hyposc.poisson import _DL_TABLE, _SO22_TABLE, LIBRARY

    states = sample_states(24, seed=11)
    rep = verify_so22(params, n_points=24, seed=11)
    for (a, b, coeff, target), row in zip(_SO22_TABLE, rep.pairs):
        loop = max(
            abs(bracket(LIBRARY[a], LIBRARY[b], st, params)
                - (coeff * LIBRARY[target](st, params) if target else 0.0))
            for st in states
        )
        assert abs(row.max_residual - loop) <= 1e-12
    rep = verify_df_algebra(params, n_points=8, seed=11)
    for (a, b, _, rhs), row in zip(_DL_TABLE, rep.pairs):
        loop = 0.0
        for st in states[:8]:
            values = {k: obs(st, params) for k, obs in LIBRARY.items()}
            loop = max(loop, abs(bracket(LIBRARY[a], LIBRARY[b], st, params) - rhs(values)))
        assert abs(row.max_residual - loop) <= 1e-12


def test_df_backend_check_scales_with_bracket_size():
    # at small R the finite-difference gap exceeds 1e-7 in absolute terms
    # (1.1e-6 on this seed) but stays near 1e-11 of |grad f| |grad g|
    rep = verify_df_algebra(ModelParams(2.0, 0.5), n_points=24, seed=5)
    assert rep.passed
    assert all(p.backend_gap < 1e-9 for p in rep.pairs)


def test_df_backend_check_rejects_wrong_stencil(params, monkeypatch):
    import hyposc.poisson as poisson

    stencil = poisson.FD_STENCIL[:-1] + ((2.0, 1.0),)  # last weight's sign flipped
    monkeypatch.setattr(poisson, "FD_STENCIL", stencil)
    rep = verify_df_algebra(params, n_points=8, seed=3)
    assert not rep.passed
    regular = [p for p in rep.pairs if not p.flagged]
    assert all(p.backend_gap > 1e-3 and not p.passed for p in regular)
