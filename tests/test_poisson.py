import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from hyposc.duals import Dual
from hyposc.dynamics import Mode, _chart_rhs
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
    y = np.array([state.point.q1, state.point.q2, state.point.phi,
                  state.p1, state.p2, state.pphi])
    rhs = _chart_rhs(state.point.chart.is_outer, params, Mode.OSCILLATOR)
    dq1, _, dphi, dp1, _, _ = rhs(0.0, y)
    npt.assert_allclose(bracket(Q1, H_OSC, state, params), dq1, rtol=1e-9)
    npt.assert_allclose(bracket(PHI, H_OSC, state, params), dphi, rtol=1e-9)
    npt.assert_allclose(bracket(P1, H_OSC, state, params), dp1, rtol=1e-9, atol=1e-12)


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
    out.write_text(json.dumps(rep.as_dict(), indent=2))
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


def _fd_reference(values, coords, stencil):
    """Finite-difference gradient table, one pass per coordinate and stencil point."""
    from hyposc.poisson import FD_STEP

    table = {}
    for i, x in enumerate(coords):
        seeded = list(coords)
        h = FD_STEP * np.maximum(1.0, np.abs(x))
        sums = {}
        for k, weight in stencil:
            seeded[i] = x + k * h
            for name, v in values(seeded).items():
                sums[name] = sums.get(name, 0.0) + weight * v
        for name, total in sums.items():
            table.setdefault(name, np.zeros((6,) + np.shape(coords[0])))[i] = total / (12.0 * h)
    return table


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_WRONG_STENCIL = ((-2.0, 1.0), (-1.0, -8.0), (1.0, 8.0), (2.0, 1.0))


@pytest.mark.parametrize("omega, radius", [(1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("wrong_stencil", [False, True])
def test_stacked_fd_pass_matches_per_pass_loop(omega, radius, wrong_stencil, monkeypatch):
    import hyposc.poisson as poisson

    if wrong_stencil:
        monkeypatch.setattr(poisson, "FD_STENCIL", _WRONG_STENCIL)
    params = ModelParams(omega, radius)
    for seed in (0, 1, 2):
        coords = list(poisson.sample_coords(24, seed))

        def values(c):
            return poisson._library_values(poisson.SAMPLE_CHART, c, params)

        stacked = poisson._gradient_table(values, coords, "fd")
        reference = _fd_reference(values, coords, poisson.FD_STENCIL)
        assert stacked.keys() == reference.keys()
        for name in reference:
            assert _same_bits(stacked[name], reference[name]), name


@pytest.mark.parametrize("omega, radius", [(1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("backend", ["dual", "fd"])
def test_generator_kernel_matches_library_kernel(omega, radius, backend):
    import hyposc.poisson as poisson

    params = ModelParams(omega, radius)
    coords = list(poisson.sample_coords(24, 4))
    kernels = (poisson._generator_values, poisson._library_values)
    vals = [k(poisson.SAMPLE_CHART, coords, params) for k in kernels]
    tables = [
        poisson._gradient_table(lambda c, k=k: k(poisson.SAMPLE_CHART, c, params), coords, backend)
        for k in kernels
    ]
    assert set(vals[0]) == {"L1", "L2", "L3", "N1", "N2", "N3"}
    for name in vals[0]:
        assert _same_bits(vals[0][name], vals[1][name]), name
        assert _same_bits(tables[0][name], tables[1][name]), name


@pytest.mark.parametrize("wrong_stencil", [False, True])
def test_fd_bracket_of_float_only_observables_matches_per_pass_loop(
        params, wrong_stencil, monkeypatch):
    import hyposc.poisson as poisson

    if wrong_stencil:
        monkeypatch.setattr(poisson, "FD_STENCIL", _WRONG_STENCIL)
    f = Observable(
        "f",
        lambda st, par: math.sinh(st.point.q1) * math.cos(st.point.phi) * st.p2
        + st.pphi**2 * math.cosh(st.point.q2) / par.radius,
        supports_duals=False,
    )
    g = Observable(
        "g", lambda st, par: float(np.cosh(st.point.q1)) * st.p1 - st.point.q2 * st.pphi,
        supports_duals=False,
    )
    for st in sample_states(6, seed=9):
        coords = [float(c) for c in poisson._scalars(st)]
        grads = [
            _fd_reference(
                lambda c, o=obs: {o.name: o.evaluator(poisson._state_from(st.point.chart, c),
                                                      params)},
                coords, poisson.FD_STENCIL)[obs.name]
            for obs in (f, g)
        ]
        expected = float(poisson._symplectic_pair(*grads))
        assert _same_bits(bracket(f, g, st, params, backend="fd"), expected)
        assert _same_bits(bracket(f, g, st, params), expected)  # auto picks fd


def _dual_reference(values, coords):
    """Dual gradient table, one pass per coordinate with tangent 1.0."""
    table = {}
    for i, x in enumerate(coords):
        seeded = list(coords)
        seeded[i] = Dual(x, 1.0)
        for name, v in values(seeded).items():
            row = v.im if isinstance(v, Dual) else 0.0
            table.setdefault(name, np.zeros((6,) + np.shape(coords[0])))[i] = row
    return table


_KERNELS = ("_generator_values", "_tensor_values", "_library_values")


@pytest.mark.parametrize("omega, radius", [(1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("kernel", _KERNELS)
def test_three_dual_passes_match_one_pass_per_coordinate(omega, radius, kernel):
    # the wide pass differs from one pass per coordinate at most in the sign
    # of zeros, which compare equal
    import hyposc.poisson as poisson

    params = ModelParams(omega, radius)
    fn = getattr(poisson, kernel)

    def values(c):
        return fn(poisson.SAMPLE_CHART, c, params)

    for seed in (0, 1, 2):
        coords = poisson.sample_coords(24, seed)
        batches = [list(coords)] + [[float(x) for x in coords[:, j]] for j in (0, 11, 23)]
        for batch in batches:
            table = poisson._gradient_table(values, batch, "dual")
            reference = _dual_reference(values, batch)
            assert table.keys() == reference.keys()
            for name in reference:
                assert table[name].shape == reference[name].shape
                assert np.array_equal(table[name], reference[name]), name


@pytest.mark.parametrize("omega, radius", [(1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("backend", ["dual", "fd"])
def test_tensor_kernel_matches_library_kernel(omega, radius, backend):
    import hyposc.poisson as poisson

    params = ModelParams(omega, radius)
    coords = list(poisson.sample_coords(24, 6))
    kernels = (poisson._tensor_values, poisson._library_values)
    vals = [k(poisson.SAMPLE_CHART, coords, params) for k in kernels]
    tables = [
        poisson._gradient_table(lambda c, k=k: k(poisson.SAMPLE_CHART, c, params), coords, backend)
        for k in kernels
    ]
    assert set(vals[0]) == {"Lt1", "Lt2", "Lt3", "D11", "D12", "D13", "D22", "D23", "D33"}
    for name in vals[0]:
        assert _same_bits(vals[0][name], vals[1][name]), name
        assert _same_bits(tables[0][name], tables[1][name]), name


def _sweep_reference(kernel, coords, params, relations, backends):
    """Residual and gap per relation, one relation at a time on whole tables."""
    import hyposc.poisson as poisson

    def pair(gf, gg):
        return (gf[0] * gg[3] - gg[0] * gf[3]
                + gf[1] * gg[4] - gg[1] * gf[4]
                + gf[2] * gg[5] - gg[2] * gf[5])

    def values(c):
        return kernel(poisson.SAMPLE_CHART, c, params)

    vals = values(coords)
    tables = [poisson._gradient_table(values, coords, b) for b in backends]
    res = np.zeros(len(relations))
    gap = np.zeros(len(relations))
    for j, (a, b, rhs_fn) in enumerate(relations):
        lhs = [pair(t[a], t[b]) for t in tables]
        res[j] = np.max(np.abs(lhs[0] - rhs_fn(vals, params)))
        if len(lhs) > 1:
            size = np.linalg.norm(tables[0][a], axis=0) * np.linalg.norm(tables[0][b], axis=0)
            gap[j] = np.max(np.abs(lhs[0] - lhs[1]) / np.maximum(1.0, size))
    return res, gap


def _relations(kind, params):
    import hyposc.poisson as poisson

    if kind == "so22":
        return [(a, b, (lambda v, p: 0.0) if t is None else (lambda v, p, c=c, t=t: c * v[t]))
                for a, b, c, t in poisson._SO22_TABLE]
    w2, iR2 = params.omega**2, 1.0 / params.radius**2
    rows = [(a, b, lambda v, p, f=f: f(v)) for a, b, _, f in poisson._DL_TABLE]
    rows += [(a, b, lambda v, p: 0.0) for a, b in poisson._DIAGONAL_ZEROS]
    for table in (poisson._DD_TABLE, poisson._FLAGGED_TABLE, poisson._FITTED_TABLE):
        rows += [(a, b, lambda v, p, f=f: f(v, w2, iR2)) for a, b, _, f in table]
    return rows


@pytest.mark.parametrize("kind", ["so22", "df_algebra"])
def test_stacked_relation_pass_matches_per_relation_loop(kind):
    import hyposc.poisson as poisson

    n = 1300  # three blocks, the last one partial
    assert n > 2 * poisson.BLOCK
    params = ModelParams(1.0, 1.0)
    coords = poisson.sample_coords(n, 8)
    if kind == "so22":
        kernel, backends = poisson._generator_values, ("dual",)
    else:
        kernel, backends = poisson._tensor_values, ("dual", "fd")
    relations = _relations(kind, params)
    res, gap = poisson._sweep(kernel, coords, params, relations, backends)
    ref_res, ref_gap = _sweep_reference(kernel, coords, params, relations, backends)
    assert _same_bits(res, ref_res)
    assert _same_bits(gap, ref_gap)
    if kind == "df_algebra":
        assert np.all(gap > 0.0)


def test_blocked_fd_pass_matches_one_unblocked_pass(params, monkeypatch):
    import hyposc.poisson as poisson

    n = 1300
    coords = list(poisson.sample_coords(n, 10))
    calls = []

    def values(c):
        calls.append(np.shape(c[0]))
        return poisson._tensor_values(poisson.SAMPLE_CHART, c, params)

    blocked = poisson._gradient_table(values, coords, "fd")
    assert calls == [(4, 6, 512), (4, 6, 512), (4, 6, n - 1024)]
    monkeypatch.setattr(poisson, "BLOCK", n)
    calls.clear()
    whole = poisson._gradient_table(values, coords, "fd")
    assert calls == [(4, 6, n)]
    assert blocked.keys() == whole.keys()
    for name in whole:
        assert _same_bits(blocked[name], whole[name]), name
