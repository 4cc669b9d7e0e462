import math

import numpy as np
import numpy.testing as npt
import pytest

import hyposc.dynamics as dyn
from hyposc.dynamics import (
    EventKind,
    IntegrationConfig,
    IntegrationError,
    Mode,
    _chart_rhs,
    hamiltonian,
    integrate,
    measure_period,
    potential,
)
from hyposc.geometry import (
    ChartId,
    ChartPoint,
    EmbeddingPhase,
    EmbeddingPoint,
    ModelParams,
    PhaseState,
    chart_select,
    momentum_lift,
    momentum_project,
)
from hyposc.invariants import evaluate_invariants, l_squared
from hyposc.orbits import canonical_state, classify, eff_minimum, radial_solution


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


def _eom(st, params):
    """(dq1, dq2, dphi, dp1, dp2, dpphi) of the oscillator at a chart state."""
    y = np.array([st.point.q1, st.point.q2, st.point.phi, st.p1, st.p2, st.pphi])
    return _chart_rhs(params, Mode.OSCILLATOR)(0.0, y)


def test_eom_radial_reduction(params):
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.8, 0.0, 0.0), 0.6, 0.0, 0.0)
    dq1, dq2, dphi, dp1, dp2, dpphi = _eom(st, params)
    npt.assert_allclose(dq1, 0.6, rtol=1e-15)
    assert dq2 == dphi == dp2 == dpphi == 0.0
    force = -math.tanh(0.8) / math.cosh(0.8) ** 2
    npt.assert_allclose(dp1, force, rtol=1e-14)


def test_eom_circular_stationary(params):
    st = canonical_state(0.375, 0.25, params)
    dq1, dq2, dphi, dp1, dp2, _ = _eom(st, params)
    npt.assert_allclose([dq1, dp1, dq2, dp2], np.zeros(4), atol=1e-15)
    npt.assert_allclose(dphi, 0.5, rtol=1e-14)  # pphi / sinh^2 r_c


def test_eom_conserves_pphi(params):
    rng = np.random.default_rng(4)
    for _ in range(20):
        pt = ChartPoint(ChartId.OUTER_PLUS, rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 6.0))
        st = PhaseState(pt, *rng.uniform(-1.5, 1.5, size=3))
        assert _eom(st, params)[5] == 0.0


def test_eom_energy_gradient_consistency(params):
    # dH/dt along the flow vanishes: dot(q) . dH/dq + dot(p) . dH/dp = 0
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.1, -0.5, 0.7), 0.4, 0.8, -0.6)
    flow = _eom(st, params)
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
    dh = sum(f * g for f, g in zip(flow[:3], grad[:3])) + sum(
        f * g for f, g in zip(flow[3:], grad[3:])
    )
    assert abs(dh) < 1e-8


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


# one state per branch of the chart right-hand side
_CHART_RHS_STATES = {
    "outer radial": [0.8, 0.3, 1.1, 0.4, 0.0, 0.0],
    "outer angular": [0.8, 0.3, 1.1, 0.4, -0.6, 0.5],
}
_AMBIENT_Y = [1.3, 0.4, 0.6, 0.5, 0.2, -0.1, 0.3, 0.7]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _scalar_reference(rhs, y):
    """rhs on numpy scalars, as it evaluated before the float fast path."""
    return rhs(0.0, [np.float64(v) for v in y])


@pytest.mark.parametrize("mode", [Mode.OSCILLATOR, Mode.FREE])
@pytest.mark.parametrize("branch", sorted(_CHART_RHS_STATES))
def test_chart_rhs_on_floats_matches_numpy_scalars(branch, mode):
    y = _CHART_RHS_STATES[branch]
    rhs = dyn._chart_rhs(ModelParams(2.0, 0.5), mode)
    expected = _scalar_reference(rhs, y)
    for arg in (np.array(y), list(y)):
        out = rhs(0.0, arg)
        assert isinstance(out, tuple) and len(out) == 6
        assert _bits(out) == _bits(expected)


@pytest.mark.parametrize("mode", [Mode.OSCILLATOR, Mode.FREE])
def test_ambient_rhs_on_floats_matches_numpy_scalars(mode):
    rhs = dyn._ambient_rhs(ModelParams(2.0, 0.5), mode)
    expected = _scalar_reference(rhs, _AMBIENT_Y)
    for arg in (np.array(_AMBIENT_Y), list(_AMBIENT_Y)):
        out = rhs(0.0, arg)
        assert isinstance(out, tuple) and len(out) == 8
        assert _bits(out) == _bits(expected)


@pytest.mark.parametrize("rhs, y", [
    (dyn._ambient_rhs(ModelParams(), Mode.OSCILLATOR), [0.0] + _AMBIENT_Y[1:]),
    (dyn._chart_rhs(ModelParams(), Mode.OSCILLATOR), [0.0, 0.7, 2.0, -0.3, 0.45, 0.25]),
])
def test_rhs_division_by_zero_gives_inf_and_nan(rhs, y):
    # z0 = 0 (ambient) and r = 0 with p2 != 0 (outer chart) divide by zero:
    # numpy scalars give inf and nan there, and so must the fast path
    with np.errstate(divide="ignore", invalid="ignore"):
        out = rhs(0.0, np.array(y))
        expected = _scalar_reference(rhs, y)
    assert not np.all(np.isfinite(out))
    assert _bits(out) == _bits(expected)


def test_rhs_overflow_still_raises():
    # cosh(300)**3 is out of range for a float on both paths
    rhs = dyn._chart_rhs(ModelParams(), Mode.OSCILLATOR)
    for arg in (np.array([300.0, 0.0, 0.0, 0.1, 0.0, 0.0]), [300.0, 0.0, 0.0, 0.1, 0.0, 0.0]):
        with pytest.raises(OverflowError):
            rhs(0.0, arg)


def test_integration_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(t_span=(1.0, 1.0))


def _count_solver_runs(monkeypatch):
    runs = []
    real = dyn.solve_stretch

    def counting(*args, **kwargs):
        runs.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(dyn, "solve_stretch", counting)
    return runs


def test_integrate_calls_solver_set_on_module(params, monkeypatch):
    # integrate must call whatever the module attribute holds, so that a
    # wrapper set on it sees every solver call
    calls = _count_solver_runs(monkeypatch)
    integrate(canonical_state(0.4, 0.25, params), params, IntegrationConfig(t_span=(0.0, 1.0)))
    assert calls


def test_case_a_conservation(case_a):
    traj = case_a["traj"]
    h, lsq, c1 = traj.column("H"), traj.column("Lsq"), traj.column("C1")
    for i in range(traj.times.size):
        assert abs(h[i] - h[0]) < 1e-9
        assert abs(lsq[i] - lsq[0]) < 1e-9
        assert abs(c1[i]) < 1e-10


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
    for t, q1 in zip(traj.times, traj.column("q1")):
        s_num = math.sinh(q1) ** 2
        assert abs(s_num - float(sol(t))) < 1e-6


def _case_a_scaled(omega, periods):
    """Case A at (omega, R = 1), E = 0.4 omega^2 and L^2 = omega^2 / 4, over
    a whole number of periods; the run and its exact period."""
    params = ModelParams(omega, 1.0)
    period = math.pi / (omega * math.sqrt(0.2))
    state = canonical_state(0.4 * omega**2, 0.25 * omega**2, params)
    return integrate(state, params, IntegrationConfig(t_span=(0.0, periods * period))), period


def _of_kind(traj, kind):
    return [e for e in traj.events if e.kind == kind]


def test_closure_slack_scales_with_the_period():
    # over exactly 2T, k = 3 lies a whole period past the span at every omega
    runs = [_case_a_scaled(omega, 2.0) for omega in (1.0, 1e10, 1e11)]
    details = [[e.detail for e in _of_kind(traj, EventKind.PERIOD_CLOSURE)] for traj, _ in runs]
    assert details[0] == details[1] == ["k=1", "k=2"]
    for traj, period in runs:
        closures = _of_kind(traj, EventKind.PERIOD_CLOSURE)
        assert all(int(e.detail[2:]) * period <= traj.times[-1] * (1 + 1e-6) for e in closures)
        assert len({e.t for e in closures}) == len(closures)


def test_turning_points_near_the_start_at_extreme_omega():
    # at omega = 1e13 a period is 7e-13: an absolute slack of 1e-12 at t0
    # would drop the apocenter at T/2 and the pericenter at T
    unit, _ = _case_a_scaled(1.0, 3.25)
    fast, period = _case_a_scaled(1e13, 3.25)
    turns = [e.detail for e in _of_kind(unit, EventKind.RADIAL_TURNING_POINT)]
    assert turns == ["apocenter", "pericenter"] * 3
    fast_turns = _of_kind(fast, EventKind.RADIAL_TURNING_POINT)
    assert [e.detail for e in fast_turns] == turns
    npt.assert_allclose(fast_turns[0].t, period / 2.0, rtol=1e-3)


def test_measured_period_against_formula(case_a):
    traj, period = case_a["traj"], case_a["period"]
    measured = measure_period(traj)
    npt.assert_allclose(measured, period, rtol=1e-9)


def test_circular_measured_period(params):
    st = canonical_state(0.375, 0.25, params)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 13.0)))
    npt.assert_allclose(measure_period(traj), 2.0 * math.pi, rtol=1e-12)


@pytest.mark.parametrize("e, l_sq, chart", [(0.3, 0.1, ChartId.OUTER_PLUS), (0.25, -0.2, None)])
def test_measured_period_on_windows_of_one_to_two_periods(params, e, l_sq, chart):
    # the turning point at t0 is not logged, so these windows can hold only
    # one turning point of each kind; the two kinds alternate every half period
    period = classify(e, l_sq, params).period
    for windows in (1.2, 1.5):
        cfg = IntegrationConfig(t_span=(0.0, windows * period))
        traj = integrate(canonical_state(e, l_sq, params), params, cfg)
        assert traj.chart is chart
        npt.assert_allclose(measure_period(traj), period, rtol=1e-8)


def test_circular_orbit_logs_period_closures(params):
    # no turning points: the closure pass takes the circular rate
    traj = integrate(canonical_state(0.375, 0.25, params), params,
                     IntegrationConfig(t_span=(0.0, 20.0)))
    closures = [e for e in traj.events if e.kind == EventKind.PERIOD_CLOSURE]
    assert [e.detail for e in closures] == ["k=1", "k=2", "k=3"]
    npt.assert_allclose([e.t for e in closures], [2.0 * math.pi * k for k in (1, 2, 3)],
                        rtol=1e-12)


def test_inner_turn_guard_reads_the_radial_force(params):
    # at rest in Free mode the centrifugal force of p2 = 1e-300 underflows to
    # 0: no turning events are tracked, so none is logged near t = 0
    st = PhaseState(ChartPoint(ChartId.INNER_PLUS, 0.5, 0.7, 2.0), 0.0, 1e-300, 0.0)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 2.0)), Mode.FREE)
    assert traj.events == ()
    # the oscillator force of a state at rest is tracked: one apocenter
    st = PhaseState(ChartPoint(ChartId.INNER_MINUS, 0.5, 0.7, 0.0), 0.0, 0.0, 0.0)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 2.0)))
    assert [(e.kind, e.detail) for e in traj.events] == [
        (EventKind.RADIAL_TURNING_POINT, "apocenter")]


def test_inner_circular_fallback_reads_the_azimuthal_rate(params):
    # p_chi stays at zero up to rounding, so the period is pi over the first
    # sample's phidot = p_phi/(R^2 sin^2 chi sinh^2 mu)
    st = PhaseState(ChartPoint(ChartId.INNER_PLUS, 0.01, 0.01, 0.0), 0.0, 0.0, 1e-12)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 4e4)), Mode.FREE)
    expected = math.pi * math.sin(0.01) ** 2 * math.sinh(0.01) ** 2 / 1e-12
    npt.assert_allclose(measure_period(traj), expected, rtol=1e-12)


def test_outer_circular_fallback_reads_the_azimuthal_rate(params):
    # r stays at 0.9 (p_r within 4e-12 of zero) while tau moves, so the period
    # is pi over the first sample's phidot = p_phi/(R^2 sinh^2 r cosh^2 tau)
    pphi = math.cosh(0.3) * math.tanh(0.9) ** 2
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.9, 0.3, 0.0), 0.0, 0.0, pphi)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 8.0)))
    assert traj.chart is ChartId.OUTER_PLUS and traj.events == ()
    assert measure_period(traj) == 6.74452804220551


def test_unbounded_has_no_period(params):
    st = canonical_state(0.6, 0.25, params)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 12.0)))
    assert measure_period(traj) is None


def test_chart_and_ambient_methods_agree(params):
    # case A runs on the chart; the same orbit stepped in ambient form with
    # in-place projection must land on the same phase point
    st = canonical_state(0.4, 0.25, params)
    cfg = IntegrationConfig(t_span=(0.0, 10.0))
    traj = integrate(st, params, cfg)
    assert traj.chart is ChartId.OUTER_PLUS
    y80 = dyn._y8_from_phase(momentum_lift(st, params))
    ref = dyn.solve_stretch(dyn._ambient_rhs(params, Mode.OSCILLATOR), cfg.t_span, y80,
                            rtol=dyn.REL_TOL, atol=dyn.ABS_TOL,
                            project=lambda y: dyn._project_constraint(y, params.radius),
                            dt_proj=1.0)
    assert ref.status == 0 and ref.t_proj
    za = traj.ambient_at(10.0)
    zb = dyn._project_constraint(ref.sol.at([10.0])[0], params.radius)
    npt.assert_allclose([za.z.z0, za.z.z1, za.z.z2, za.z.z3], zb[:4], atol=1e-7)
    npt.assert_allclose([za.p0, za.p1, za.p2, za.p3], zb[4:], atol=1e-7)


def test_chart_turning_events_match_solve_ivp(case_a, params):
    # the stepping driver copies solve_ivp's event rules, so on the chart path
    # it finds the same roots to the last bit
    from scipy.integrate import solve_ivp

    st = case_a["state"]
    cfg = IntegrationConfig(t_span=(0.0, 10.0 * case_a["period"]))

    def turn(t, y):
        return y[3]

    y0 = [st.point.q1, st.point.q2, st.point.phi, st.p1, st.p2, st.pphi]
    ref = solve_ivp(dyn._chart_rhs(params, Mode.OSCILLATOR), cfg.t_span, y0,
                    method="DOP853", rtol=dyn.REL_TOL, atol=dyn.ABS_TOL,
                    dense_output=True, events=[turn])
    expected = [t for t in ref.t_events[0] if t > 1e-12]
    turns = [e.t for e in case_a["traj"].events if e.kind == EventKind.RADIAL_TURNING_POINT]
    assert len(turns) == 19
    assert turns == expected


def test_solve_stretch_projects_in_place_and_reports_events():
    # y' = y, halved at each projection: the exact end value is e^T / 2^n,
    # which a first stage left over from the unprojected state would miss
    def at_start(t, y):
        return t

    def crossing(t, y):  # each projected state e^t / 2^n stays above 1.2
        return y[0] - 1.2

    res = dyn.solve_stretch(lambda t, y: y, (0.0, 3.0), np.array([1.0]),
                            [at_start, crossing],
                            rtol=1e-12, atol=1e-14, project=lambda y: 0.5 * y, dt_proj=1.0)
    assert res.status == 0 and len(res.t_proj) == 2
    # no restart: the solver keeps its step size across a projection
    plain = dyn.solve_stretch(lambda t, y: y, (0.0, 3.0), np.array([1.0]),
                              rtol=1e-12, atol=1e-14)
    assert res.t.size <= plain.t.size + 2
    assert np.all(np.diff(res.t_proj) >= 1.0) and res.t_proj[0] >= 1.0
    npt.assert_allclose(res.y[0, -1], math.exp(3.0) / 4.0, rtol=1e-10)
    assert list(res.t_events[0]) == [0.0]  # a zero at the start counts
    npt.assert_allclose(res.t_events[1], [math.log(1.2)], rtol=1e-10)


def test_ambient_projection_cadence_and_drift(neg_l2_traj, params, monkeypatch):
    # ambient stretches project in place at most once per dt_proj, and the
    # unprojected samples stay well inside the 1e-8 R^2 drift abort
    runs = []
    real = dyn.solve_stretch

    def recording(fun, t_span, y0, events=(), **kw):
        res = real(fun, t_span, y0, events, **kw)
        runs.append((t_span, kw, res))
        return res

    monkeypatch.setattr(dyn, "solve_stretch", recording)
    cfg = IntegrationConfig(t_span=(0.0, 2.0 * neg_l2_traj["period"]))
    integrate(neg_l2_traj["state"], params, cfg)
    assert runs
    R2 = params.radius**2
    for (t0, t1), kw, res in runs:
        dt_proj = kw["dt_proj"]
        t_proj = np.array(res.t_proj)
        assert t_proj.size >= 1
        assert np.all(np.diff(np.concatenate([[t0], t_proj])) >= dt_proj)
        assert t_proj.size <= (t1 - t0) / dt_proj
        z = res.y[:4]
        drift = np.abs(z[0] ** 2 + z[1] ** 2 - z[2] ** 2 - z[3] ** 2 - R2)
        assert np.max(drift) <= 1e-9 * R2


def test_representation_chosen_from_initial_state(params, case_a, neg_l2_traj, monkeypatch):
    # an outer state whose L^2 is tiny against its energy can come near the
    # cone, so it runs in ambient form; case A stays clear of it on the chart.
    # Either way the whole span is one solver run.
    runs = _count_solver_runs(monkeypatch)
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.6, 0.0, 0.0), -0.3, 0.0, 1e-4)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 20.0)))
    assert traj.chart is None and len(runs) == 1
    energies = list(traj.column("H"))
    assert max(energies) - min(energies) < 1e-9
    period = classify(hamiltonian(st, params), l_squared(st), params).period
    npt.assert_allclose(measure_period(traj), period, atol=1e-6)

    for ref, chart in ((case_a, ChartId.OUTER_PLUS), (neg_l2_traj, None)):
        runs.clear()
        traj = integrate(ref["state"], params, IntegrationConfig(t_span=(0.0, ref["period"])))
        assert traj.chart is chart and len(runs) == 1


def test_ambient_circular_orbit_has_no_turning_events(params):
    # L^2 this small puts the circle within the cone's reach of the chart rule
    l_sq = 1e-10
    e = eff_minimum(l_sq, params)[1]
    st = canonical_state(e, l_sq, params)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 20.0)))
    assert traj.chart is None
    assert not [ev for ev in traj.events if ev.kind == EventKind.RADIAL_TURNING_POINT]
    npt.assert_allclose(measure_period(traj), classify(e, l_sq, params).period, atol=1e-6)
    npt.assert_allclose(measure_period(traj), 3.14162407, atol=1e-8)


def test_zero_l2_span_ending_at_the_pole(params):
    # samples of this L^2 = 0 orbit land within rounding of the coordinate
    # pole, where |z0| / R rounds to 1
    period = classify(0.25, 0.0, params).period
    st = canonical_state(0.25, 0.0, params)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 1.5 * period)))
    assert traj.times[-1] == pytest.approx(1.5 * period)
    npt.assert_allclose(measure_period(traj), period, rtol=1e-8)


def test_ambient_drift_aborts_when_it_appears(params, monkeypatch):
    # an escaping L^2 = 0 orbit leaves the shell at t ~ 12; the per-step
    # check stops it there instead of after the rest of the span, with the
    # message sample assembly gives for the same sample
    calls = []
    real = dyn._ambient_rhs

    def counting(*args):
        rhs = real(*args)

        def counted(t, y):
            calls.append(t)
            # 481 calls today; without the per-step check the span takes minutes
            assert len(calls) <= 2000, "RHS-call budget exceeded"
            return rhs(t, y)

        return counted

    monkeypatch.setattr(dyn, "_ambient_rhs", counting)
    st = canonical_state(0.75, 0.0, params)
    with pytest.raises(IntegrationError) as err:
        integrate(st, params, IntegrationConfig(t_span=(0.0, 20.0)))
    assert str(err.value) == "constraint drift 1.863e-08 beyond 1e-08*R^2 at t=12.05063229686252"


@pytest.mark.parametrize("chart, q1, q2", [
    (ChartId.OUTER_PLUS, 1e3, 0.0),   # cosh r overflows a float
    (ChartId.INNER_MINUS, 0.5, 1e3),  # cosh mu overflows a float
])
def test_overflowing_initial_state_is_an_integration_error(chart, q1, q2, params):
    st = PhaseState(ChartPoint(chart, q1, q2, 0.0), 0.1, 0.0, 0.0)
    with pytest.raises(IntegrationError, match="non-finite initial data"):
        integrate(st, params, IntegrationConfig())


@pytest.mark.parametrize("p1, pphi, span, message", [
    # ~1e154 dynamical times in a unit span, on the ambient path: stepping
    # it would never end
    (1e154, 0.3, 1.0, r"span of 1e\+154 dynamical times exceeds the limit of 1e\+06"),
    (1e160, 0.3, 1.0, "non-finite initial data"),  # p1^2 overflows H
    # a chart run over twice MAX_DYNAMICAL_TIMES (omega = 1 bounds the rate below)
    (0.0, 2.0, 2e6, "dynamical times exceeds the limit"),
], ids=["huge_p1", "overflowing_p1", "long_chart_run"])
def test_overlong_span_fails_before_stepping(p1, pphi, span, message, params, monkeypatch):
    def no_stepping(*args, **kwargs):
        raise AssertionError("solve_stretch called")

    monkeypatch.setattr(dyn, "solve_stretch", no_stepping)
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, 0.0), p1, 0.0, pphi)
    with pytest.raises(IntegrationError, match=message):
        integrate(st, params, IntegrationConfig(t_span=(0.0, span)))


def test_step_budget_stops_a_bounded_run(params, monkeypatch):
    # E = 0.4, L^2 = 1/4 (BoundedGeneric) takes about 270 steps over ten periods;
    # the budget stops it after 40 attempts of 12 RHS calls each (the start and
    # the dense output at event roots take a few more)
    calls = []
    chart_rhs = dyn._chart_rhs

    def counted(*args):
        rhs = chart_rhs(*args)
        return lambda t, y: calls.append(t) or rhs(t, y)

    monkeypatch.setattr(dyn, "_chart_rhs", counted)
    monkeypatch.setattr(dyn, "MAX_STEPS", 40)
    assert classify(0.4, 0.25, params).regime.value == "BoundedGeneric"
    st = canonical_state(0.4, 0.25, params)
    with pytest.raises(IntegrationError, match=r"^chart integration failed: step budget of 40 "
                                               r"attempts exhausted at t=\d"):
        integrate(st, params, IntegrationConfig(t_span=(0.0, 100.0)))
    assert 12 * 40 < len(calls) < 13 * 40


def test_project_constraint_rejects_points_off_the_shell():
    y8 = np.array([2.0, 0.0, 1.0, 0.0, 0.1, 0.0, 0.0, 0.0])
    out = dyn._project_constraint(y8, 1.5)
    assert out[0] ** 2 + out[1] ** 2 - out[2] ** 2 - out[3] ** 2 == pytest.approx(2.25)
    for z0 in (1.0, 0.5, math.nan, math.inf):  # z.z = 0, < 0, nan, inf
        y8[0] = z0
        with pytest.raises(IntegrationError, match=r"cannot project onto the shell"):
            dyn._project_constraint(y8, 1.5)
    y8[0] = 0.5
    with pytest.raises(IntegrationError, match=r"\|z\|/R = 7\.454e-01 at t=3\.25$"):
        dyn._project_constraint(y8, 1.5, 3.25)


def test_free_mode_conserves_all_generators(params):
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.3, 0.2), 0.4, -0.3, 0.6)
    traj = integrate(st, params, IntegrationConfig(t_span=(0.0, 8.0)), Mode.FREE)
    generators = np.array([traj.column(name) for name in ("L1", "L2", "L3", "N1", "N2", "N3")])
    for g in generators.T:
        npt.assert_allclose(g, generators[:, 0], atol=1e-9)


def test_neg_l2_crossings(neg_l2_traj):
    traj, period = neg_l2_traj["traj"], neg_l2_traj["period"]
    crossings = [e for e in traj.events if e.kind == EventKind.CHART_CROSSING]
    first = [e for e in crossings if e.t <= period]
    assert [e.detail for e in first] == ["outer->inner", "inner->outer"]
    npt.assert_allclose(first[0].t, 1.686890373, rtol=1e-6)
    npt.assert_allclose(first[1].t, 2.755992566, rtol=1e-6)


def test_neg_l2_conservation_through_crossings(neg_l2_traj):
    traj = neg_l2_traj["traj"]
    h, lsq = traj.column("H"), traj.column("Lsq")
    for i in range(traj.times.size):
        assert abs(h[i] - h[0]) < 1e-8
        assert abs(lsq[i] - lsq[0]) < 1e-8


def test_neg_l2_measured_period(neg_l2_traj):
    measured = measure_period(neg_l2_traj["traj"])
    npt.assert_allclose(measured, neg_l2_traj["period"], rtol=1e-8)


def test_trajectory_dense_eval_matches_samples(case_a):
    traj = case_a["traj"]
    mid = traj.times.size // 2
    ph = traj.ambient_at(traj.times[mid])
    npt.assert_allclose(
        [ph.z.z0, ph.z.z1, ph.z.z2, ph.z.z3],
        [traj.column(name)[mid] for name in ("z0", "z1", "z2", "z3")],
        atol=1e-9,
    )
    with pytest.raises(ValueError):
        traj.ambient_at(1e6)


def _zero_l2_through_the_pole(params):
    """An L^2 = 0 orbit with p_phi = 1, integrated in ambient form (as in fig9)."""
    state = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.6, 0.0, 0.0), 0.0, 1.0, 1.0)
    return integrate(state, params, IntegrationConfig(t_span=(0.0, 9.0)))


@pytest.mark.parametrize("which", ["chart", "ambient"])
def test_ambient_points_match_ambient_at_bit_for_bit(case_a, params, which):
    traj = case_a["traj"] if which == "chart" else _zero_l2_through_the_pole(params)
    assert (traj.chart is None) == (which == "ambient")
    t0, t1 = traj.times[0], traj.times[-1]
    # a grid, every step boundary (evaluated on the earlier step) and the span ends
    ts = np.concatenate([np.linspace(t0, t1, 720), traj.times, [t1 + 1e-12]])
    got = traj.ambient_points(ts)
    want = np.array([traj.ambient_at(float(t)).z.array for t in ts]).T
    assert got.shape == (4, ts.size)
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert traj.ambient_points([]).shape == (4, 0)
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.ambient_points([t0, t1 + 1e-6])
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.ambient_at(t1 + 1e-6)


INVARIANT_COLUMNS = ("H", "N1", "N2", "N3", "L1", "L2", "L3", "Lsq", "C1", "C2",
                     "D11", "D12", "D13", "D22", "D23", "D33")


def _sample_by_sample(stretch, chart, params, mode):
    """Each solver sample turned into a table column one state at a time:
    lift or project it, then evaluate_invariants."""
    charts, states, invariants = [], [], []
    for t, y in zip(stretch.t, stretch.y.T):
        if chart is not None:
            state = PhaseState(ChartPoint(chart, y[0], y[1], y[2]), y[3], y[4], y[5])
            ph = momentum_lift(state, params)
        else:
            y8 = dyn._project_constraint(y, params.radius, t)
            ph = EmbeddingPhase(EmbeddingPoint(*y8[:4]), *y8[4:])
            state = momentum_project(ph, chart_select(ph.z, params), params)
        inv = evaluate_invariants(ph, params, mode.value)
        g, d = inv.generators, inv.df
        pt, z = state.point, ph.z
        charts.append(pt.chart)
        states.append((t, pt.q1, pt.q2, pt.phi, state.p1, state.p2, state.pphi,
                       z.z0, z.z1, z.z2, z.z3, ph.p0, ph.p1, ph.p2, ph.p3))
        invariants.append((inv.hamiltonian, g.n1, g.n2, g.n3, g.l1, g.l2, g.l3,
                           inv.l_squared, inv.casimir1, inv.casimir2,
                           d[0, 0], d[0, 1], d[0, 2], d[1, 1], d[1, 2], d[2, 2]))
    return tuple(charts), np.array(states).T, np.array(invariants).T


@pytest.mark.parametrize("fixture", ["case_a", "neg_l2_traj"])
def test_sample_table_matches_sample_by_sample_assembly(fixture, params, request, monkeypatch):
    ref = request.getfixturevalue(fixture)
    stretches = []
    real = dyn.solve_stretch

    def recording(*args, **kwargs):
        stretches.append(real(*args, **kwargs))
        return stretches[-1]

    monkeypatch.setattr(dyn, "solve_stretch", recording)
    cfg = IntegrationConfig(t_span=(0.0, float(ref["traj"].times[-1])))
    traj = integrate(ref["state"], params, cfg)
    assert traj.chart is (ChartId.OUTER_PLUS if fixture == "case_a" else None)
    charts, states, invariants = _sample_by_sample(stretches[0], traj.chart, params, traj.mode)
    assert traj.charts == charts
    names = ("t", "q1", "q2", "phi", "p1", "p2", "pphi",
             "z0", "z1", "z2", "z3", "pz0", "pz1", "pz2", "pz3")
    table = np.array([traj.column(name) for name in names])
    assert table.tobytes() == states.tobytes()
    # the table squares with numpy where evaluate_invariants calls pow: 2 ulp
    got = np.array([traj.column(name) for name in INVARIANT_COLUMNS])
    assert np.all(np.abs(got - invariants) <= 4.5e-16 * np.maximum(1.0, np.abs(invariants)))


def test_trajectory_export_round_trip(case_a, tmp_path):
    traj = case_a["traj"]
    csv_path = tmp_path / "traj.csv"
    traj.to_csv(str(csv_path))
    rows = csv_path.read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header[0] == "t"
    assert len(rows) == traj.times.size + 1
    t_back = [float(r.split(",")[0]) for r in rows[1:]]
    npt.assert_allclose(t_back, traj.times, rtol=0, atol=0)  # full-precision dump


def _fstring_rows(values):
    return [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in values]


def test_csv_rows_match_fstring_join(case_a, tmp_path):
    traj = case_a["traj"]
    traj.to_csv(str(tmp_path / "t.csv"))
    traj.to_invariants_csv(str(tmp_path / "i.csv"))
    tail = ["Lsq", "C1", "C2", "D11", "D12", "D13", "D22", "D23", "D33"]
    full_names = (["t", "chart", "q1", "q2", "phi", "p1", "p2", "pphi", "z0", "z1", "z2", "z3",
                   "H", "L1", "L2", "L3"] + tail)
    inv_names = ["t", "H", "N1", "N2", "N3", "L1", "L2", "L3"] + tail

    def rows(names):
        cols = [[c.value for c in traj.charts] if name == "chart" else traj.column(name)
                for name in names]
        return [list(row) for row in zip(*cols)]

    assert (tmp_path / "t.csv").read_text().splitlines() == (
        [",".join(full_names)] + _fstring_rows(rows(full_names)))
    assert (tmp_path / "i.csv").read_text().splitlines() == (
        [",".join(inv_names)] + _fstring_rows(rows(inv_names)))


def test_csv_row_format_on_special_values(tmp_path):
    special = (np.float64("nan"), math.inf, -np.inf, -0.0, np.float64(-0.0),
               np.float32(0.1), np.int64(7), 1.0 / 3.0, 5e-324, 1e22)
    row = (special * 3)[:24]
    values = (row[0], "outer_plus") + row[1:]
    path = tmp_path / "row.csv"
    for vals in (values, row[:17]):
        dyn.write_table(str(path), [f"c{i}" for i in range(len(vals))], [[v] for v in vals])
        assert path.read_text().splitlines()[1] == _fstring_rows([vals])[0]
