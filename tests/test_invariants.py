import math

import numpy as np
import numpy.testing as npt
import pytest

from hyposc.geometry import ChartId, ChartPoint, ModelParams, PhaseState, momentum_lift
from hyposc.invariants import (
    GBAR,
    check_identities,
    df_components,
    evaluate_invariants,
    l_squared,
)
from hyposc.poisson import sample_states
from oracles import generators


def test_radial_boost_generators(params):
    p_r = 0.7
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, 0.0), p_r, 0.0, 0.0)
    g = generators(st, params)
    npt.assert_allclose(g.l, (0.0, 0.0, 0.0), atol=1e-15)
    npt.assert_allclose(g.n, (0.0, -p_r, 0.0), rtol=1e-15, atol=1e-15)


def test_azimuthal_momentum_enters_l1(params):
    q = 1.3
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, math.pi / 2), 0.0, 0.0, q)
    g = generators(st, params)
    # ambient sign convention: l1 = -(z2 p3 - z3 p2) = -p_phi
    npt.assert_allclose(g.l1, -q, rtol=1e-15)
    npt.assert_allclose((g.l2, g.l3), (0.0, 0.0), atol=1e-15)


def test_generators_match_ambient_route(params):
    for st in sample_states(100, seed=5):
        g = generators(st, params)
        ga = evaluate_invariants(momentum_lift(st, params), params).generators
        npt.assert_allclose(ga.l + ga.n, g.l + g.n, rtol=1e-12, atol=1e-12)


def test_l_squared_forms(params):
    q = 1.3
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.2, 0.5, 0.3), 0.0, 1.0, 0.0)
    npt.assert_allclose(l_squared(st), -1.0, rtol=1e-15)
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.2, 0.0, 0.3), 0.0, 0.0, q)
    npt.assert_allclose(l_squared(st), q * q, rtol=1e-15)
    st = PhaseState(ChartPoint(ChartId.INNER_PLUS, 0.7, 0.4, 0.3), 0.0, 1.0, 0.0)
    npt.assert_allclose(l_squared(st), -1.0, rtol=1e-15)


def test_l_squared_never_positive_inner(params):
    rng = np.random.default_rng(8)
    for _ in range(50):
        pt = ChartPoint(
            ChartId.INNER_PLUS, rng.uniform(-1.3, 1.3), rng.uniform(0.1, 2.0), rng.uniform(0.0, 6.0)
        )
        st = PhaseState(pt, *rng.uniform(-2.0, 2.0, size=3))
        assert l_squared(st) <= 1e-15


def test_l_squared_equals_casimir_combination(params):
    # L^2 = l1^2 - l2^2 - l3^2 through either route
    for st in sample_states(50, seed=9):
        g = generators(st, params)
        npt.assert_allclose(
            l_squared(st), g.l1**2 - g.l2**2 - g.l3**2, rtol=1e-12, atol=1e-12
        )


def test_demkov_fradkin_radial_state(params):
    p_r = 0.7
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, 0.0), p_r, 0.0, 0.0)
    d = evaluate_invariants(momentum_lift(st, params), params).df
    npt.assert_allclose(d[1, 1], p_r**2 + math.tanh(1.0) ** 2, rtol=1e-14)
    npt.assert_allclose(d - d.T, np.zeros((3, 3)), atol=0.0)  # exactly symmetric
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    npt.assert_allclose(d[mask], np.zeros(8), atol=1e-15)


def test_demkov_fradkin_rejects_cone(params):
    with pytest.raises(ValueError):
        df_components((0.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0), params)


def test_casimir_identities_random_states(params):
    for st in sample_states(200, seed=10):
        inv = evaluate_invariants(momentum_lift(st, params), params)
        assert abs(inv.casimir1) < 1e-10
        assert abs(inv.casimir2 + 2.0 * params.radius**2 * inv.free_hamiltonian) < 1e-9


def test_hamiltonian_from_tensor_trace(params):
    # H = (-D11 + D22 + D33)/2 - L^2/(2 R^2)
    for st in sample_states(100, seed=11):
        inv = evaluate_invariants(momentum_lift(st, params), params)
        d = inv.df
        h = inv.hamiltonian
        combo = 0.5 * (-d[0, 0] + d[1, 1] + d[2, 2]) - l_squared(st) / (2 * params.radius**2)
        npt.assert_allclose(h, combo, rtol=1e-12, atol=1e-12)


def test_weighted_contraction_vanishes(params):
    # sum_i gbar_ii L_i D_ik = 0 for each k; the unweighted sum does not
    for st in sample_states(50, seed=12):
        inv = evaluate_invariants(momentum_lift(st, params), params)
        g, d = inv.generators, inv.df
        lvec = np.array(g.l)
        weighted = (np.array(GBAR) * lvec) @ d
        npt.assert_allclose(weighted, np.zeros(3), atol=1e-12)
        assert np.max(np.abs(lvec @ d)) > 1e-12  # unweighted sum does not vanish


def test_check_identities_report(params):
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.2, 0.5, 0.3), 0.0, 1.0, 0.0)
    rep = check_identities(evaluate_invariants(momentum_lift(st, params), params), params)
    names = [c["identity"] for c in rep["checks"]]
    assert "C1 = 0" in names
    assert "C2 + 2 R^2 H_free = 0" in names
    assert all(c["passed"] for c in rep["checks"] if c["passed"] is not None)
    assert all(c["n_points"] == 1 for c in rep["checks"])
    info = [c for c in rep["checks"] if c["passed"] is None]
    assert len(info) == 1  # unweighted contraction is recorded, not gated


def test_free_hamiltonian_signature(params):
    # H_free = (-p0^2 - p1^2 + p2^2 + p3^2)/2 on lifted momenta
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, 0.0), 1.0, 0.0, 0.0)
    ph = momentum_lift(st, params)
    expect = 0.5 * (-ph.p0**2 - ph.p1**2 + ph.p2**2 + ph.p3**2)
    h_free = evaluate_invariants(ph, params).free_hamiltonian
    npt.assert_allclose(h_free, expect, rtol=1e-15)
    npt.assert_allclose(h_free, 0.5, rtol=1e-12)  # p_r^2/(2R^2)
