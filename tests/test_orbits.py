import csv
import math
import os

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import brentq

from hyposc.dynamics import IntegrationConfig, Mode, hamiltonian, integrate
from hyposc.geometry import ChartId, ChartPoint, ModelParams, PhaseState
from hyposc.invariants import l_squared
from hyposc.orbits import (
    Carrier,
    ConicKind,
    RadialRegime,
    angular_solution,
    canonical_state,
    classify,
    contraction_check,
    eff_minimum,
    effective_potential,
    export_figures,
    half_period_formula,
    orbit_conic,
    period_formula,
    radial_roots,
    radial_solution,
    time_of_flight,
    trajectory_negative_l2,
    turning_radii,
    zero_l2_orbit,
)

W2R4 = 1.0  # omega^2 R^4 at unit parameters


# ---------------------------------------------------------------------------
# effective potential
# ---------------------------------------------------------------------------


def test_effective_potential_minimum(params):
    r_c, u_min = eff_minimum(0.25, params)
    npt.assert_allclose(r_c, 0.8813735870195432, rtol=1e-14)
    npt.assert_allclose(u_min, 0.375, rtol=1e-14)
    # stationarity and value
    npt.assert_allclose(effective_potential(r_c, 0.25, params), u_min, rtol=1e-14)
    h = 1e-6
    du = (
        effective_potential(r_c + h, 0.25, params)
        - effective_potential(r_c - h, 0.25, params)
    ) / (2 * h)
    assert abs(du) < 1e-9


def test_eff_minimum_edge_cases(params):
    assert eff_minimum(1.0, params) is None  # monotone above l_sq = omega^2 R^4
    assert eff_minimum(1.5, params) is None
    npt.assert_allclose(eff_minimum(0.0, params), (0.0, 0.0), atol=1e-15)


def test_eff_minimum_closed_form(params):
    # U_min = omega sqrt(L^2) - L^2 / (2 R^2)
    for l_sq in (0.04, 0.25, 0.64):
        _, u_min = eff_minimum(l_sq, params)
        npt.assert_allclose(u_min, math.sqrt(l_sq) - l_sq / 2.0, rtol=1e-12)


def test_effective_potential_centrifugal_wall(params):
    assert effective_potential(1e-4, 0.25, params) > 1e6
    npt.assert_allclose(effective_potential(0.7, 0.0, params), 0.5 * math.tanh(0.7) ** 2, rtol=1e-14)


# ---------------------------------------------------------------------------
# turning structure and periods
# ---------------------------------------------------------------------------


def test_radial_roots_values(params):
    npt.assert_allclose(radial_roots(0.375, 0.25, params), (0.5, 0.5), rtol=1e-12)
    npt.assert_allclose(radial_roots(0.5, 0.25, params), (0.25, 1.0), rtol=1e-12)
    npt.assert_allclose(radial_roots(0.6, 0.25, params), (0.2, 1.25), rtol=1e-12)


def test_radial_roots_match_quadratic(params):
    for e, l_sq in [(0.4, 0.25), (0.45, 0.09), (0.7, 0.5)]:
        x1, x2 = radial_roots(e, l_sq, params)
        for x in (x1, x2):
            npt.assert_allclose(x * x - (2 * e + l_sq) * x + l_sq, 0.0, atol=1e-12)


def test_turning_radii_values(params):
    r_min, r_max = turning_radii(0.4, 0.25, params)
    npt.assert_allclose(r_min, 0.6995587983533359, rtol=1e-14)
    npt.assert_allclose(r_max, 1.1807706234129396, rtol=1e-14)
    r_min, r_max = turning_radii(0.6, 0.25, params)
    npt.assert_allclose(r_min, 0.48121182505960336, rtol=1e-14)
    assert r_max is None
    r_min, r_max = turning_radii(0.25, -1.0, params)
    assert r_min is None
    npt.assert_allclose(r_max, 1.3920246320104426, rtol=1e-14)


def test_turning_radii_at_potential(params):
    # U_eff(r_turn) = E
    for e, l_sq in [(0.4, 0.25), (0.45, 0.04)]:
        r_min, r_max = turning_radii(e, l_sq, params)
        npt.assert_allclose(effective_potential(r_min, l_sq, params), e, rtol=1e-10)
        npt.assert_allclose(effective_potential(r_max, l_sq, params), e, rtol=1e-10)


def test_period_formula(params):
    npt.assert_allclose(period_formula(0.4, params), math.pi / math.sqrt(0.2), rtol=1e-15)
    npt.assert_allclose(period_formula(0.375, params), 2.0 * math.pi, rtol=1e-15)
    # flat-oscillator limit E -> 0
    npt.assert_allclose(period_formula(1e-12, params), math.pi, rtol=1e-9)


def test_half_period_consistency(params):
    # pi / (2 omega sqrt((1-x1)(1-x2))) equals T/2 independent of L^2
    for l_sq in (0.04, 0.25):
        npt.assert_allclose(
            half_period_formula(0.4, l_sq, params), period_formula(0.4, params) / 2.0, rtol=1e-12
        )


def test_time_of_flight_half_period(params):
    r_min, r_max = turning_radii(0.4, 0.25, params)
    tof = time_of_flight(r_min, r_max, 0.4, 0.25, params)
    npt.assert_allclose(tof, 3.5124073655203634, rtol=1e-10)
    npt.assert_allclose(tof, half_period_formula(0.4, 0.25, params), rtol=1e-10)
    assert time_of_flight(r_min, r_min, 0.4, 0.25, params) == 0.0


def test_time_of_flight_rejects_crossing(params):
    r_min, r_max = turning_radii(0.4, 0.25, params)
    with pytest.raises(ValueError):
        time_of_flight(0.5 * r_min, r_max, 0.4, 0.25, params)


def test_time_of_flight_additive(params):
    r_min, r_max = turning_radii(0.4, 0.25, params)
    r_mid = 0.5 * (r_min + r_max)
    t1 = time_of_flight(r_min, r_mid, 0.4, 0.25, params)
    t2 = time_of_flight(r_mid, r_max, 0.4, 0.25, params)
    npt.assert_allclose(t1 + t2, time_of_flight(r_min, r_max, 0.4, 0.25, params), rtol=1e-10)


@pytest.mark.parametrize("e, l_sq, omega, radius", [
    (0.4, 0.25, 1.0, 1.0),   # b = 1 - x2 > 0 (bounded)
    (0.45, 0.1, 2.0, 0.5),   # b > 0 at other parameters
    (0.5, 0.0, 1.0, 1.0),    # b = 0: fig9's threshold orbit
    (0.8, 0.0, 1.0, 1.0),    # b < 0: fig9's unbounded orbit
    (2.0, -0.5, 0.7, 1.6),   # b < 0 with L^2 < 0
])
def test_time_of_flight_matches_quadrature(e, l_sq, omega, radius):
    # the closed form against the quadrature of dt = d theta / (omega (1 - X))
    from scipy.integrate import quad

    params = ModelParams(omega, radius)
    x1, x2 = radial_roots(e, l_sq, params)
    lo, hi = max(x1, 0.0), min(x2, 1.0 - 1e-3)
    for xa, xb in ((lo, hi), (lo + 0.3 * (hi - lo), lo + 0.9 * (hi - lo))):
        r_a, r_b = math.atanh(math.sqrt(xa)), math.atanh(math.sqrt(xb))
        # theta of the radii as time_of_flight sees them: near a turning
        # point asin amplifies the rounding of tanh(atanh(.)) to ~1e-8
        th = [math.asin(math.sqrt(min(max(math.tanh(r) ** 2 - x1, 0.0) / (x2 - x1), 1.0)))
              for r in (r_a, r_b)]
        ref, _ = quad(lambda t: 1.0 / (1.0 - x1 - (x2 - x1) * math.sin(t) ** 2), *th,
                      epsabs=1e-13, epsrel=1e-13, limit=200)
        npt.assert_allclose(time_of_flight(r_a, r_b, e, l_sq, params), ref / omega, rtol=1e-12)


# ---------------------------------------------------------------------------
# radial closed forms
# ---------------------------------------------------------------------------


def test_radial_solution_bounded_anchor(params):
    sol = radial_solution(0.4, 0.25, params)  # upward mean crossing at t0 = 0
    npt.assert_allclose(float(sol(0.0)), 1.375, rtol=1e-12)
    x1, x2 = radial_roots(0.4, 0.25, params)
    w0 = math.sqrt(0.2)
    t_apo = math.pi / (4.0 * w0)  # sin phase peaks a quarter period after t0
    npt.assert_allclose(float(sol(t_apo)), x2 / (1 - x2), rtol=1e-12)
    npt.assert_allclose(float(sol(3.0 * t_apo)), x1 / (1 - x1), rtol=1e-12)
    # periodicity at T = pi / w0
    npt.assert_allclose(float(sol(1.1 + math.pi / w0)), float(sol(1.1)), rtol=1e-12)


def test_radial_solution_circular_constant(params):
    sol = radial_solution(0.375, 0.25, params)
    npt.assert_allclose(sol(np.linspace(0, 5, 7)), np.ones(7), rtol=1e-12)


def test_radial_solution_threshold(params):
    sol = radial_solution(0.5, 0.0, params)  # sinh^2 r = t^2 at L^2 = 0 threshold
    npt.assert_allclose(float(sol(2.0)), 4.0, rtol=1e-12)
    sol_l = radial_solution(0.5, 0.25, params)
    lam = 0.25
    t = 1.3
    expect = 1.0 / (1 - lam) + (1 - lam) * t * t - 1.0
    npt.assert_allclose(float(sol_l(t)), expect, rtol=1e-12)


def test_radial_solution_unbounded_start(params):
    sol = radial_solution(0.6, 0.25, params)
    npt.assert_allclose(float(sol(0.0)), 0.25, rtol=1e-12)  # x1/(1-x1) at closest approach
    assert float(sol(8.0)) > 1e3  # runaway growth


def test_radial_solution_forbidden_raises(params):
    with pytest.raises(ValueError):
        radial_solution(0.3, 0.25, params)


# ---------------------------------------------------------------------------
# angular relation
# ---------------------------------------------------------------------------


def test_angular_solution_kinds(params):
    assert angular_solution(0.25, 0.5).kind == "tau_zero"
    a = angular_solution(0.25, 1.0, phi0=0.1)
    assert a.kind == "tau_of_phi"
    npt.assert_allclose(a.coeff, math.sqrt(0.75), rtol=1e-15)
    assert angular_solution(0.0, 0.7).kind == "l_zero"
    an = angular_solution(-1.0, 0.5)
    assert an.kind == "neg_l2"
    npt.assert_allclose(an.coeff, 0.5 / math.sqrt(1.25), rtol=1e-15)
    assert angular_solution(-1.0, 0.0).kind == "constant_phi"
    with pytest.raises(ValueError):
        angular_solution(0.25, 0.3)


def test_angular_solution_values():
    a = angular_solution(0.0, 0.7, phi0=0.2)
    npt.assert_allclose(float(a(0.2 - math.pi / 4)), math.asinh(1.0), rtol=1e-12)
    g = angular_solution(0.25, 1.0, phi0=0.0)
    npt.assert_allclose(float(g(0.0)), 0.0, atol=1e-15)


def test_angular_solution_residual_on_trajectory(params, case_a):
    # case A lives on tau = 0; the relation degenerates to that branch
    traj = case_a["traj"]
    rel = angular_solution(case_a["l_sq"], 0.5)
    q2 = [s.state.point.q2 for s in traj.samples]
    phi = [s.state.point.phi for s in traj.samples]
    assert rel.residual(np.array(q2), np.array(phi)) < 1e-9


# ---------------------------------------------------------------------------
# conics
# ---------------------------------------------------------------------------


def test_orbit_conic_values(params):
    c = orbit_conic(0.4, 0.25, params)
    npt.assert_allclose(c.p, 0.47619047619047616, rtol=1e-14)
    npt.assert_allclose(c.eps, 0.3049106779729929, rtol=1e-12)
    npt.assert_allclose(c.b_sq, 0.36492189406417874, rtol=1e-12)
    npt.assert_allclose(c.a_sq, 0.6850781059358213, rtol=1e-12)
    assert c.kind == ConicKind.ELLIPSE


def test_orbit_conic_axes_are_turning_roots(params):
    for e, l_sq in [(0.4, 0.25), (0.42, 0.09)]:
        c = orbit_conic(e, l_sq, params)
        x1, x2 = radial_roots(e, l_sq, params)
        npt.assert_allclose((c.b_sq, c.a_sq), (x1, x2), rtol=1e-10)
        npt.assert_allclose(c.b_sq * c.a_sq, l_sq / W2R4, rtol=1e-10)


def test_orbit_conic_special_kinds(params):
    assert orbit_conic(0.375, 0.25, params).kind == ConicKind.CIRCLE
    eq = orbit_conic(0.5, 0.25, params)
    assert eq.kind == ConicKind.EQUIDISTANT
    npt.assert_allclose((eq.p, eq.eps, eq.b_sq, eq.a_sq), (0.4, 0.6, 0.25, 1.0), rtol=1e-12)
    assert orbit_conic(0.6, 0.25, params).kind == ConicKind.ULTRAELLIPSE


def test_orbit_conic_rejects_nonpositive_l2(params):
    with pytest.raises(ValueError):
        orbit_conic(0.4, 0.0, params)
    with pytest.raises(ValueError):
        orbit_conic(0.4, -0.5, params)
    with pytest.raises(ValueError):
        orbit_conic(0.3, 0.25, params)  # below the potential minimum


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

CLASSIFY_TABLE = [
    (0.375, 0.25, RadialRegime.CIRCULAR, Carrier.TWO_SHEETED_UPPER),
    (0.4, 0.25, RadialRegime.BOUNDED_GENERIC, Carrier.TWO_SHEETED_UPPER),
    (0.5, 0.25, RadialRegime.THRESHOLD, Carrier.TWO_SHEETED_UPPER),
    (0.6, 0.25, RadialRegime.UNBOUNDED_GENERIC, Carrier.TWO_SHEETED_UPPER),
    (0.505, 1.1, RadialRegime.REPULSIVE_L2, Carrier.TWO_SHEETED_UPPER),
    (0.2, 0.0, RadialRegime.ZERO_L2_BOUNDED, Carrier.HYPERBOLIC_CYLINDER),
    (0.8, 0.0, RadialRegime.ZERO_L2_UNBOUNDED, Carrier.HYPERBOLIC_CYLINDER),
    (0.25, -1.0, RadialRegime.NEG_L2_BOUNDED, Carrier.ONE_SHEETED),
    (0.7, -1.0, RadialRegime.NEG_L2_UNBOUNDED, Carrier.ONE_SHEETED),
    (0.3, 0.25, RadialRegime.FORBIDDEN, Carrier.TWO_SHEETED_UPPER),
]


@pytest.mark.parametrize("e,l_sq,regime,carrier", CLASSIFY_TABLE)
def test_classify_table(e, l_sq, regime, carrier, params):
    oc = classify(e, l_sq, params)
    assert oc.regime == regime
    assert oc.carrier == carrier


def test_classify_periods_and_radii(params):
    oc = classify(0.4, 0.25, params)
    npt.assert_allclose(oc.period, math.pi / math.sqrt(0.2), rtol=1e-12)
    npt.assert_allclose((oc.r_min, oc.r_max), (0.6995587983533359, 1.1807706234129396), rtol=1e-12)
    assert classify(0.6, 0.25, params).period is None
    neg = classify(0.25, -1.0, params)
    npt.assert_allclose(neg.period, math.pi * math.sqrt(2.0), rtol=1e-12)
    assert classify(0.3, 0.25, params).period is None


# ---------------------------------------------------------------------------
# canonical states
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "e,l_sq",
    [(0.4, 0.25), (0.375, 0.25), (0.2, 0.0), (0.8, 0.0), (0.25, -1.0), (0.7, -1.0), (-0.2, -1.0)],
)
def test_canonical_state_realizes_invariants(e, l_sq, params):
    st = canonical_state(e, l_sq, params)
    npt.assert_allclose(hamiltonian(st, params), e, rtol=1e-12, atol=1e-14)
    npt.assert_allclose(l_squared(st), l_sq, rtol=1e-12, atol=1e-14)


def test_canonical_state_conventions(params):
    st = canonical_state(0.4, 0.25, params)  # pericenter, equator plane
    assert st.point.chart == ChartId.OUTER_PLUS
    npt.assert_allclose(st.point.q1, 0.6995587983533359, rtol=1e-14)
    assert st.p1 == st.p2 == st.point.q2 == 0.0
    npt.assert_allclose(st.pphi, 0.5, rtol=1e-15)
    deep = canonical_state(0.7, -1.0, params)  # unbounded negative L^2 starts inner
    assert deep.point.chart == ChartId.INNER_PLUS


def test_canonical_state_forbidden(params):
    with pytest.raises(ValueError, match="minimum of the effective potential"):
        canonical_state(0.3, 0.25, params)
    with pytest.raises(ValueError):
        canonical_state(-0.2, 0.25, params)


# ---------------------------------------------------------------------------
# negative-L^2 closed form
# ---------------------------------------------------------------------------


def test_trajectory_negative_l2_values(params):
    tr = trajectory_negative_l2(0.25, -1.0, 0.0, 0.0, params)
    npt.assert_allclose(float(tr.outer(0.0)), 1.2807764064044151, rtol=1e-14)
    npt.assert_allclose(float(tr.inner(0.0)), 0.7807764064044151, rtol=1e-14)
    npt.assert_allclose(tr.r_max, 1.3920246320104432, rtol=1e-12)
    npt.assert_allclose(tr.chi_max, 0.8471075182467905, rtol=1e-12)
    assert tr.tau_min is None
    # coth^2 r at the apex equals the outer curve value at tau = 0
    npt.assert_allclose(1.0 / math.tanh(tr.r_max) ** 2, float(tr.outer(0.0)), rtol=1e-12)


def test_trajectory_negative_l2_unbounded(params):
    tr = trajectory_negative_l2(1.5, -1.0, 0.0, 0.0, params)
    assert tr.r_max is None
    npt.assert_allclose(tr.tau_min, 0.44068679350977147, rtol=1e-12)


def test_trajectory_negative_l2_validation(params):
    with pytest.raises(ValueError):
        trajectory_negative_l2(0.25, 0.5, 0.0, 0.0, params)
    with pytest.raises(ValueError):
        trajectory_negative_l2(0.25, -1.0, 0.3, 0.0, params)


# ---------------------------------------------------------------------------
# zero-L^2 orbit equation
# ---------------------------------------------------------------------------


def test_zero_l2_corrected_coefficient_matches_numeric(params):
    # integrate an L^2 = 0, pphi != 0 orbit and fit coth^2 r against
    # (1, x, x^2) with x = tan(phi)/pphi; completing the square recovers
    # the curve constants without fixing the phase offset beta by hand
    e, pphi = 0.35, 0.8
    r0, tau0 = 0.9, 0.0
    p2 = pphi / math.cosh(tau0)

    def energy_gap(p1):
        st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, r0, tau0, 0.0), p1, p2, pphi)
        return hamiltonian(st, params) - e

    p1 = brentq(energy_gap, 0.0, 5.0)
    st0 = PhaseState(ChartPoint(ChartId.OUTER_PLUS, r0, tau0, 0.0), p1, p2, pphi)
    assert abs(l_squared(st0)) < 1e-14
    traj = integrate(st0, params, IntegrationConfig(t_span=(0.0, 3.0)), Mode.OSCILLATOR)
    xs, cots = [], []
    for s in traj.samples:
        pt = s.state.point
        if not pt.chart.is_outer or pt.q1 < 0.15:
            continue
        xs.append(math.tan(pt.phi) / pphi)
        cots.append(1.0 / math.tanh(pt.q1) ** 2)
    xs, cots = np.array(xs), np.array(cots)
    design = np.vstack([np.ones_like(xs), xs, xs * xs]).T
    (a, b, c), *_ = np.linalg.lstsq(design, cots, rcond=None)
    assert np.max(np.abs(design @ [a, b, c] - cots)) < 1e-9
    npt.assert_allclose(c, 2.0 * e * params.radius**2, rtol=1e-9)
    npt.assert_allclose(a - b * b / (4 * c), 1.0 / (2.0 * e), rtol=1e-8)
    assert abs(c - params.radius * math.sqrt(e)) > 0.1  # the other candidate coefficient


def test_zero_l2_orbit_forms(params):
    curve = zero_l2_orbit(0.35, 0.8, 0.0, params, corrected=True)
    npt.assert_allclose(float(curve(0.0)), 1.0 / 0.7, rtol=1e-12)
    plain = zero_l2_orbit(0.35, 0.8, 0.0, params, corrected=False)
    assert abs(float(plain(0.5)) - float(curve(0.5))) > 1e-3
    with pytest.raises(ValueError):
        zero_l2_orbit(0.0, 0.8, 0.0, params)
    with pytest.raises(ValueError):
        zero_l2_orbit(0.35, 0.0, 0.0, params)


# ---------------------------------------------------------------------------
# flat-space contraction
# ---------------------------------------------------------------------------


def test_contraction_check(params):
    rep = contraction_check(0.75, 0.25, (10.0, 100.0, 1000.0))
    npt.assert_allclose(rep.slope, -2.0, atol=0.01)
    npt.assert_allclose(rep.p_flat, 1.0 / 3.0, rtol=1e-14)
    npt.assert_allclose(rep.eps_flat, 0.7453559924999299, rtol=1e-12)
    npt.assert_allclose(rep.p_scaled[-1], rep.p_flat, rtol=1e-6)
    npt.assert_allclose(rep.eps_values[-1], rep.eps_flat, rtol=1e-6)
    assert rep.deviations[0] > rep.deviations[-1]


def test_contraction_check_validation(params):
    with pytest.raises(ValueError):
        contraction_check(0.75, 0.25, (100.0, 10.0))
    with pytest.raises(ValueError):
        contraction_check(0.75, -0.25, (10.0, 100.0))
    with pytest.raises(ValueError):
        contraction_check(0.4, 0.25, (10.0, 100.0))  # E <= omega sqrt(L^2)


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def test_export_figures_single(params, tmp_path):
    out = str(tmp_path)
    manifest = export_figures(("fig1",), out, params)
    entries = manifest["figures"]
    assert len(entries) == 1
    assert entries[0]["figure"] == "fig1"
    for ds in entries[0]["datasets"]:
        assert os.path.exists(os.path.join(out, ds["file"]))


def test_export_figure_curves_match_potential(params, tmp_path):
    out = str(tmp_path)
    manifest = export_figures(("fig1",), out, params)
    ds = manifest["figures"][0]["datasets"][0]
    assert ds["kind"] == "effective_potential"
    with open(os.path.join(out, ds["file"])) as fh:
        rows = list(csv.DictReader(fh))
    for col, meta in ds["columns"].items():
        l_sq = meta["l_sq"]
        for row in rows[:: max(1, len(rows) // 40)]:
            r, u = float(row["r"]), float(row[col])
            if r == 0.0 and l_sq > 0.0:
                continue
            npt.assert_allclose(u, effective_potential(r, l_sq, params), rtol=1e-12, atol=1e-12)


def test_export_figures_rejects_unknown(params, tmp_path):
    with pytest.raises(ValueError):
        export_figures(("fig12",), str(tmp_path), params)


def test_write_table_matches_fstring_join(tmp_path):
    from hyposc.orbits import _write_table

    rows = np.array([[np.nan, np.inf, -np.inf, -0.0],
                     [np.float32(0.1), 1.0 / 3.0, 5e-324, 1e22]])
    path = tmp_path / "table.csv"
    _write_table(str(path), "a,b,c,d", rows)
    expected = ["a,b,c,d"] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"
