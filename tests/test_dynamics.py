import math

import numpy as np
import numpy.testing as npt
import pytest

from hyposc.dynamics import (
    EventKind,
    IntegrationConfig,
    IntegrationError,
    Mode,
    equations_of_motion,
    hamiltonian,
    integrate,
    measure_period,
    potential,
)
from hyposc.geometry import ChartId, ChartPoint, ModelParams, PhaseState
from hyposc.invariants import l_squared
from hyposc.orbits import canonical_state, radial_solution


# ---------------------------------------------------------------------------
# potential and hamiltonian
# ---------------------------------------------------------------------------


def test_potential_values(params):
    assert potential(ChartPoint(ChartId.OUTER_PLUS, 0.0, 0.7, 0.1), params) == 0.0
    far = potential(ChartPoint(ChartId.OUTER_PLUS, 20.0, 0.0, 0.0), params)
    npt.assert_allclose(far, 0.5, atol=1e-15)  # saturates at omega^2 R^2 / 2
    inner = potential(ChartPoint(ChartId.INNER_PLUS, math.pi / 4, 0.2, 0.0), params)
    npt.assert_allclose(inner, -0.5, rtol=1e-14)


def test_potential_scales():
    par = ModelParams(omega=2.0, radius=3.0)
    v = potential(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, 0.0), par)
    npt.assert_allclose(v, 0.5 * 4.0 * 9.0 * math.tanh(1.0) ** 2, rtol=1e-15)


def test_hamiltonian_radial(params):
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, 0.0), 1.0, 0.0, 0.0)
    npt.assert_allclose(
        hamiltonian(st, params, Mode.OSCILLATOR), 0.5 + 0.5 * math.tanh(1.0) ** 2, rtol=1e-15
    )
    npt.assert_allclose(hamiltonian(st, params, Mode.FREE), 0.5, rtol=1e-15)


def test_hamiltonian_circular(params):
    st = canonical_state(0.375, 0.25, params)
    npt.assert_allclose(hamiltonian(st, params), 0.375, rtol=1e-14)


def test_hamiltonian_inner_zero_energy(params):
    st = PhaseState(ChartPoint(ChartId.INNER_PLUS, math.pi / 4, 0.3, 0.0), 1.0, 1.0, 0.0)
    npt.assert_allclose(hamiltonian(st, params), 0.0, atol=1e-14)


def test_hamiltonian_at_pole(params):
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.0, 0.0, 0.0), 0.9, 0.0, 0.0)
    npt.assert_allclose(hamiltonian(st, params), 0.5 * 0.81, rtol=1e-15)


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------


def test_eom_radial_reduction(params):
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.8, 0.0, 0.0), 0.6, 0.0, 0.0)
    dot = equations_of_motion(st, params)
    npt.assert_allclose(dot.dq1, 0.6, rtol=1e-15)
    assert dot.dq2 == dot.dphi == dot.dp2 == dot.dpphi == 0.0
    force = -math.tanh(0.8) / math.cosh(0.8) ** 2
    npt.assert_allclose(dot.dp1, force, rtol=1e-14)


def test_eom_circular_stationary(params):
    st = canonical_state(0.375, 0.25, params)
    dot = equations_of_motion(st, params)
    npt.assert_allclose([dot.dq1, dot.dp1, dot.dq2, dot.dp2], np.zeros(4), atol=1e-15)
    npt.assert_allclose(dot.dphi, 0.5, rtol=1e-14)  # pphi / sinh^2 r_c


def test_eom_conserves_pphi(params):
    rng = np.random.default_rng(4)
    for _ in range(20):
        pt = ChartPoint(ChartId.OUTER_PLUS, rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 6.0))
        st = PhaseState(pt, *rng.uniform(-1.5, 1.5, size=3))
        assert equations_of_motion(st, params).dpphi == 0.0


def test_eom_energy_gradient_consistency(params):
    # dH/dt along the flow vanishes: dot(q) . dH/dq + dot(p) . dH/dp = 0
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.1, -0.5, 0.7), 0.4, 0.8, -0.6)
    dot = equations_of_motion(st, params)
    h = 1e-6

    def ham_at(q1, q2, phi, p1, p2, pphi):
        return hamiltonian(PhaseState(ChartPoint(ChartId.OUTER_PLUS, q1, q2, phi), p1, p2, pphi), params)

    args = [st.point.q1, st.point.q2, st.point.phi, st.p1, st.p2, st.pphi]
    grad = []
    for i in range(6):
        up = list(args)
        dn = list(args)
        up[i] += h
        dn[i] -= h
        grad.append((ham_at(*up) - ham_at(*dn)) / (2 * h))
    flow = [dot.dq1, dot.dq2, dot.dphi, dot.dp1, dot.dp2, dot.dpphi]
    dh = sum(f * g for f, g in zip(flow[:3], grad[:3])) + sum(
        f * g for f, g in zip(flow[3:], grad[3:])
    )
    assert abs(dh) < 1e-8


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_integration_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(max_step=-1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(t_span=(1.0, 1.0))


def test_integrate_rejects_bad_method(params):
    st = canonical_state(0.4, 0.25, params)
    with pytest.raises(ValueError):
        integrate(st, params, IntegrationConfig(), Mode.OSCILLATOR, method="leapfrog")


def test_integrate_calls_solver_set_on_module(params, monkeypatch):
    # solve_ivp is imported lazily; integrate must call whatever the module
    # attribute holds, so that a wrapper set on it sees every solver call
    import hyposc.dynamics as dyn

    calls = []
    real = dyn.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(dyn, "solve_ivp", counting)
    integrate(canonical_state(0.4, 0.25, params), params, IntegrationConfig(t_span=(0.0, 1.0)))
    assert calls


def test_case_a_conservation(case_a):
    traj = case_a["traj"]
    inv0 = traj.samples[0].invariants
    for s in traj.samples:
        assert abs(s.invariants.hamiltonian - inv0.hamiltonian) < 1e-9
        assert abs(s.invariants.l_squared - inv0.l_squared) < 1e-9
        assert abs(s.invariants.casimir1) < 1e-10


def test_case_a_turning_events(case_a):
    traj, period = case_a["traj"], case_a["period"]
    turns = [e for e in traj.events if e.kind == EventKind.RADIAL_TURNING_POINT]
    # pericenter start: apocenter at T/2, pericenter at T, ... 19 over 10 T
    assert len(turns) == 19
    npt.assert_allclose(turns[0].t, period / 2.0, rtol=1e-8)
    npt.assert_allclose(turns[1].t, period, rtol=1e-8)


def test_case_a_period_closure_events(case_a):
    traj, period = case_a["traj"], case_a["period"]
    closures = [e for e in traj.events if e.kind == EventKind.PERIOD_CLOSURE]
    assert len(closures) >= 9
    npt.assert_allclose(closures[0].t, period, rtol=1e-7)


def test_case_a_matches_radial_closed_form(case_a, params):
    traj, e, l_sq = case_a["traj"], case_a["e"], case_a["l_sq"]
    # canonical start at pericenter; upward mean crossing a quarter phase later
    sol = radial_solution(e, l_sq, params, t0=math.pi / (4.0 * math.sqrt(0.2)))
    for s in traj.samples:
        s_num = math.sinh(s.state.point.q1) ** 2
        assert abs(s_num - float(sol(s.t))) < 1e-6


def test_measured_period_against_formula(case_a):
    traj, period = case_a["traj"], case_a["period"]
    measured = measure_period(traj)
    npt.assert_allclose(measured, period, rtol=1e-9)


def test_circular_measured_period(params):
    st = canonical_state(0.375, 0.25, params)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 13.0)))
    npt.assert_allclose(measure_period(traj), 2.0 * math.pi, rtol=1e-12)


def test_unbounded_has_no_period(params):
    st = canonical_state(0.6, 0.25, params)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 12.0)))
    assert measure_period(traj) is None


def test_chart_and_ambient_methods_agree(params):
    st = canonical_state(0.4, 0.25, params)
    cfg = IntegrationConfig(t_span=(0.0, 10.0))
    tc = integrate(st, params, cfg, method="chart")
    ta = integrate(st, params, cfg, method="ambient")
    za = tc.ambient_at(10.0)
    zb = ta.ambient_at(10.0)
    npt.assert_allclose(
        [za.z.z0, za.z.z1, za.z.z2, za.z.z3], [zb.z.z0, zb.z.z1, zb.z.z2, zb.z.z3], atol=1e-7
    )
    npt.assert_allclose(
        [za.p0, za.p1, za.p2, za.p3], [zb.p0, zb.p1, zb.p2, zb.p3], atol=1e-7
    )


def test_free_mode_conserves_all_generators(params):
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.3, 0.2), 0.4, -0.3, 0.6)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 8.0)), Mode.FREE)
    g0 = traj.samples[0].invariants.generators
    for s in traj.samples:
        g = s.invariants.generators
        npt.assert_allclose(g.l + g.n, g0.l + g0.n, atol=1e-9)


def test_neg_l2_crossings(neg_l2_traj):
    traj, period = neg_l2_traj["traj"], neg_l2_traj["period"]
    crossings = [e for e in traj.events if e.kind == EventKind.CHART_CROSSING]
    first = [e for e in crossings if e.t <= period]
    assert [e.detail for e in first] == ["outer->inner", "inner->outer"]
    npt.assert_allclose(first[0].t, 1.686890373, rtol=1e-6)
    npt.assert_allclose(first[1].t, 2.755992566, rtol=1e-6)


def test_neg_l2_conservation_through_crossings(neg_l2_traj):
    traj = neg_l2_traj["traj"]
    inv0 = traj.samples[0].invariants
    for s in traj.samples:
        assert abs(s.invariants.hamiltonian - inv0.hamiltonian) < 1e-8
        assert abs(s.invariants.l_squared - inv0.l_squared) < 1e-8


def test_neg_l2_measured_period(neg_l2_traj):
    measured = measure_period(neg_l2_traj["traj"])
    npt.assert_allclose(measured, neg_l2_traj["period"], rtol=1e-8)


def test_trajectory_dense_eval_matches_samples(case_a):
    traj = case_a["traj"]
    mid = traj.samples[len(traj.samples) // 2]
    ph = traj.ambient_at(mid.t)
    npt.assert_allclose(
        [ph.z.z0, ph.z.z1, ph.z.z2, ph.z.z3],
        [mid.ambient.z.z0, mid.ambient.z.z1, mid.ambient.z.z2, mid.ambient.z.z3],
        atol=1e-9,
    )
    with pytest.raises(ValueError):
        traj.ambient_at(1e6)


def test_trajectory_export_round_trip(case_a, tmp_path):
    traj = case_a["traj"]
    csv_path = tmp_path / "traj.csv"
    traj.to_csv(str(csv_path))
    rows = csv_path.read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header[0] == "t"
    assert len(rows) == len(traj.samples) + 1
    t_back = [float(r.split(",")[0]) for r in rows[1:]]
    npt.assert_allclose(t_back, traj.times, rtol=0, atol=0)  # full-precision dump
