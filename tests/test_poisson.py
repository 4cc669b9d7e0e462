import json

import numpy as np
import numpy.testing as npt
import pytest

from hyposc.duals import Dual
from hyposc.dynamics import Mode, _chart_rhs
from hyposc.geometry import ChartId, ChartPoint, ModelParams, PhaseState
from hyposc.poisson import sample_states, verify_df_algebra, verify_so22
from oracles import (COORD_NAMES, DF_REGULAR_ROWS, GRADIENT_TABLES, _library_values,
                     backend_gap, bracket, fd_table)


@pytest.fixture(scope="module")
def state():
    return PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.1, -0.4, 0.7), 0.5, 0.8, -0.6)


def _values(st, params):
    """Every named observable at one state."""
    pt = st.point
    return _library_values(pt.chart, (pt.q1, pt.q2, pt.phi, st.p1, st.p2, st.pphi), params)


def test_canonical_pairs(state, params):
    npt.assert_allclose(bracket("q1", "p1", state, params), 1.0, rtol=1e-12)
    npt.assert_allclose(bracket("phi", "pphi", state, params), 1.0, rtol=1e-12)
    npt.assert_allclose(bracket("q1", "pphi", state, params), 0.0, atol=1e-12)
    npt.assert_allclose(bracket("q1", "phi", state, params), 0.0, atol=1e-12)


def test_bracket_antisymmetry(state, params):
    for f, g in [("L1", "N2"), ("D11", "L2"), ("H_osc", "D33")]:
        a = bracket(f, g, state, params)
        b = bracket(g, f, state, params)
        npt.assert_allclose(a, -b, rtol=1e-9, atol=1e-12)


def test_rotation_subalgebra(params):
    for st in sample_states(50, seed=2):
        res = bracket("L1", "L2", st, params) + _values(st, params)["L3"]
        assert abs(res) < 1e-6


def test_hamiltonian_commutes_with_invariants(state, params):
    assert abs(bracket("H_osc", "L1", state, params)) < 1e-9
    assert abs(bracket("H_osc", "L_sq", state, params)) < 1e-9
    assert abs(bracket("H_osc", "D33", state, params)) < 1e-9


def test_bracket_reproduces_flow(state, params):
    y = np.array([state.point.q1, state.point.q2, state.point.phi,
                  state.p1, state.p2, state.pphi])
    rhs = _chart_rhs(params, Mode.OSCILLATOR)
    dq1, _, dphi, dp1, _, _ = rhs(0.0, y)
    npt.assert_allclose(bracket("q1", "H_osc", state, params), dq1, rtol=1e-9)
    npt.assert_allclose(bracket("phi", "H_osc", state, params), dphi, rtol=1e-9)
    npt.assert_allclose(bracket("p1", "H_osc", state, params), dp1, rtol=1e-9, atol=1e-12)


def test_backends_agree(state, params):
    for f, g in [("L1", "L2"), ("D11", "D12"), ("H_osc", "D33")]:
        d = bracket(f, g, state, params, backend="dual")
        n = bracket(f, g, state, params, backend="fd")
        assert abs(d - n) < 1e-7 * max(1.0, abs(d))


def test_bracket_rejects_unknown_name(state, params):
    with pytest.raises(ValueError, match=r"unknown observable 'L4' \(known: L1, .*pphi\)"):
        bracket("L1", "L4", state, params)


def test_single_state_fd_rows_match_batched_table(monkeypatch):
    # bracket is the N = 1 case of the sweeps' kernel: its finite-difference
    # gradient rows are the matching column of the batched table, bit for bit
    import hyposc.poisson as poisson

    params = ModelParams(2.0, 0.5)
    coords = poisson.sample_coords(24, 4)
    batched = fd_table(lambda c: _library_values(poisson.SAMPLE_CHART, c, params), list(coords))
    names = list(batched)
    assert len(names) == 24 and set(COORD_NAMES) <= set(names)
    rows = []
    pair = poisson._symplectic_pair
    monkeypatch.setattr(poisson, "_symplectic_pair",
                        lambda gf, gg: rows.append((gf, gg)) or pair(gf, gg))
    pairs = list(zip(names, names[1:] + names[:1]))
    for j, st in enumerate(sample_states(24, seed=4)):
        for a, b in pairs:
            rows.clear()
            val = bracket(a, b, st, params, backend="fd")
            ((gf, gg),) = rows
            assert _same_bits(gf, batched[a][:, j]), (j, a)
            assert _same_bits(gg, batched[b][:, j]), (j, b)
            assert _same_bits(val, pair(batched[a][:, j], batched[b][:, j])), (j, a, b)


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
    assert all(_gap(params, 24, 3) < 1e-7)


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
        bracket("L_sq", "H_osc", st, params)


def test_batched_sweeps_match_single_state_loop(params):
    # the sweeps' batched residuals against bracket() state by state
    from hyposc.poisson import _DL_TABLE, _SO22_TABLE

    w2, iR2 = params.omega**2, 1.0 / params.radius**2
    states = sample_states(24, seed=11)
    rep = verify_so22(params, n_points=24, seed=11)
    for (a, b, _, rhs), row in zip(_SO22_TABLE, rep.pairs):
        loop = max(
            abs(bracket(a, b, st, params) - rhs(_values(st, params), w2, iR2))
            for st in states
        )
        assert abs(row.max_residual - loop) <= 1e-12
    rep = verify_df_algebra(params, n_points=8, seed=11)
    for (a, b, _, rhs), row in zip(_DL_TABLE, rep.pairs):
        loop = 0.0
        for st in states[:8]:
            loop = max(loop, abs(bracket(a, b, st, params) - rhs(_values(st, params), w2, iR2)))
        assert abs(row.max_residual - loop) <= 1e-12


def _gap(params, n_points, seed):
    """The oracle's dual-vs-fd gap of `verify_df_algebra`'s regular rows."""
    import hyposc.poisson as poisson

    coords = poisson.sample_coords(n_points, seed)
    return backend_gap(poisson._tensor_values, coords, params, DF_REGULAR_ROWS)


def test_df_backend_check_scales_with_bracket_size():
    # at small R the finite-difference gap exceeds 1e-7 in absolute terms
    # (1.1e-6 on this seed) but stays near 1e-11 of |grad f| |grad g|
    params = ModelParams(2.0, 0.5)
    rep = verify_df_algebra(params, n_points=24, seed=5)
    assert rep.passed
    assert all(_gap(params, 24, 5) < 1e-9)


@pytest.mark.parametrize("omega", [1.0, 4.0])
@pytest.mark.parametrize("radius", [0.01, 1.0, 100.0])
def test_df_backend_gap_is_scale_free(omega, radius):
    assert all(_gap(ModelParams(omega, radius), 64, 3) < 1e-9)


def test_df_backend_check_rejects_wrong_stencil(params, monkeypatch):
    import oracles

    stencil = oracles.FD_STENCIL[:-1] + ((2.0, 1.0),)  # last weight's sign flipped
    monkeypatch.setattr(oracles, "FD_STENCIL", stencil)
    assert all(_gap(params, 8, 3) > 1e-3)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("omega, radius", [(1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("backend", ["dual", "fd"])
def test_generator_kernel_matches_library_kernel(omega, radius, backend):
    import hyposc.poisson as poisson

    params = ModelParams(omega, radius)
    coords = list(poisson.sample_coords(24, 4))
    kernels = (poisson._generator_values, _library_values)
    vals = [k(poisson.SAMPLE_CHART, coords, params) for k in kernels]
    tables = [GRADIENT_TABLES[backend](lambda c, k=k: k(poisson.SAMPLE_CHART, c, params), coords)
              for k in kernels]
    assert set(vals[0]) == {"L1", "L2", "L3", "N1", "N2", "N3"}
    for name in vals[0]:
        assert _same_bits(vals[0][name], vals[1][name]), name
        assert _same_bits(tables[0][name], tables[1][name]), name


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
    fn = _library_values if kernel == "_library_values" else getattr(poisson, kernel)

    def values(c):
        return fn(poisson.SAMPLE_CHART, c, params)

    for seed in (0, 1, 2):
        coords = poisson.sample_coords(24, seed)
        batches = [list(coords)] + [[float(x) for x in coords[:, j]] for j in (0, 11, 23)]
        for batch in batches:
            table = poisson._gradient_table(values, batch)
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
    kernels = (poisson._tensor_values, _library_values)
    vals = [k(poisson.SAMPLE_CHART, coords, params) for k in kernels]
    tables = [GRADIENT_TABLES[backend](lambda c, k=k: k(poisson.SAMPLE_CHART, c, params), coords)
              for k in kernels]
    assert set(vals[0]) == {"Lt1", "Lt2", "Lt3", "D11", "D12", "D13", "D22", "D23", "D33"}
    for name in vals[0]:
        assert _same_bits(vals[0][name], vals[1][name]), name
        assert _same_bits(tables[0][name], tables[1][name]), name


def _sweep_reference(kernel, coords, params, relations):
    """Residual per relation, one relation at a time on the whole table."""
    import hyposc.poisson as poisson

    def pair(gf, gg):
        return (gf[0] * gg[3] - gg[0] * gf[3]
                + gf[1] * gg[4] - gg[1] * gf[4]
                + gf[2] * gg[5] - gg[2] * gf[5])

    def values(c):
        return kernel(poisson.SAMPLE_CHART, c, params)

    vals = values(coords)
    w2, iR2 = params.omega**2, 1.0 / params.radius**2
    table = poisson._gradient_table(values, coords)
    res = np.zeros(len(relations))
    for j, (a, b, _, rhs_fn) in enumerate(relations):
        res[j] = np.max(np.abs(pair(table[a], table[b]) - rhs_fn(vals, w2, iR2)))
    return res


def _relations(kind):
    import hyposc.poisson as poisson

    if kind == "so22":
        return list(poisson._SO22_TABLE)
    return [*poisson._DL_TABLE, *poisson._DD_TABLE, *poisson._FLAGGED_TABLE,
            *poisson._FITTED_TABLE]


@pytest.mark.parametrize("kind", ["so22", "df_algebra"])
def test_stacked_relation_pass_matches_per_relation_loop(kind):
    import hyposc.poisson as poisson

    n = 1300  # three blocks, the last one partial
    assert n > 2 * poisson.BLOCK
    params = ModelParams(1.0, 1.0)
    coords = poisson.sample_coords(n, 8)
    kernel = poisson._generator_values if kind == "so22" else poisson._tensor_values
    relations = _relations(kind)
    res = poisson._sweep(kernel, coords, params, relations)
    assert _same_bits(res, _sweep_reference(kernel, coords, params, relations))
    if kind == "df_algebra":
        assert np.all(backend_gap(kernel, coords, params, relations) > 0.0)
