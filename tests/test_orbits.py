import csv
import math
import os
import random

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import brentq

from hyposc.dynamics import IntegrationConfig, Mode, hamiltonian, integrate
from hyposc.geometry import ChartId, ChartPoint, ModelParams, PhaseState
from hyposc.invariants import l_squared
from hyposc.orbits import (
    FIGURE_IDS,
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


@pytest.mark.parametrize("l_sq", [0.0, -1.0])
def test_radial_solution_threshold_form_fills_the_regime_band(l_sq, params):
    # ZeroL2Unbounded and NegL2Unbounded begin at E = omega^2 R^2 / 2 - be, where
    # the unbounded form's sqrt(2E / omega^2 R^2 - 1) has no real value
    be = 1e-12  # CLASS_BAND max(1, |E|, omega^2 R^2 / 2) near E = 1/2
    t = np.linspace(-2.0, 2.0, 9)
    e = 0.5 - 0.7 * be
    assert classify(e, l_sq, params).regime in (
        RadialRegime.ZERO_L2_UNBOUNDED, RadialRegime.NEG_L2_UNBOUNDED)
    c = 1.0 - l_sq
    npt.assert_array_equal(radial_solution(e, l_sq, params)(t), (1.0 / c + c * t * t) - 1.0)
    # 10 be above the band the unbounded form stays, bit for bit
    e = 0.5 + 11.0 * be
    delta = math.sqrt((2.0 * e + l_sq) ** 2 - 4.0 * l_sq)
    wc = math.sqrt(2.0 * e - 1.0)
    expect = ((l_sq - 2.0 * e) + delta * np.cosh(2.0 * wc * t)) / (2.0 * (2.0 * e - 1.0))
    npt.assert_array_equal(radial_solution(e, l_sq, params)(t), expect)


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
    assert rel.residual(traj.column("q2"), traj.column("phi")) < 1e-9


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


@pytest.mark.parametrize("omega, radius", [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)])
def test_classify_takes_numpy_scalars(omega, radius):
    p = ModelParams(omega, radius)
    for e, l_sq, regime, _ in CLASSIFY_TABLE:
        e, l_sq = e * omega**2 * radius**2, l_sq * omega**2 * radius**4
        oc = classify(e, l_sq, p)
        assert oc.regime == regime
        assert classify(np.float64(e), np.float64(l_sq), p) == oc
        if regime != RadialRegime.FORBIDDEN:
            assert canonical_state(np.float64(e), np.float64(l_sq), p) == canonical_state(e, l_sq, p)


def test_turning_radii_r_max_only_when_bounded(params):
    bounded = (RadialRegime.BOUNDED_GENERIC, RadialRegime.CIRCULAR,
               RadialRegime.NEG_L2_BOUNDED, RadialRegime.ZERO_L2_BOUNDED)
    for e, l_sq, regime, _ in CLASSIFY_TABLE:
        r_max = turning_radii(e, l_sq, params)[1]
        assert (r_max is None) == (regime not in bounded), regime


def test_classify_periods_and_radii(params):
    oc = classify(0.4, 0.25, params)
    npt.assert_allclose(oc.period, math.pi / math.sqrt(0.2), rtol=1e-12)
    npt.assert_allclose((oc.r_min, oc.r_max), (0.6995587983533359, 1.1807706234129396), rtol=1e-12)
    assert classify(0.6, 0.25, params).period is None
    neg = classify(0.25, -1.0, params)
    npt.assert_allclose(neg.period, math.pi * math.sqrt(2.0), rtol=1e-12)
    assert classify(0.3, 0.25, params).period is None


@pytest.mark.parametrize("omega, radius", [
    (1.0, 1.0), (2.0, 0.5), (0.5, 3.0), (1e3, 1.0), (1.0, 30.0), (10.0, 0.01), (0.01, 1.0),
])
def test_carrier_and_conic_follow_the_regime(omega, radius):
    # classify decides the sign of L^2 in the regime's band,
    # CLASS_BAND max(1, |L^2|, omega^2 R^4), for the carrier and conic too
    p = ModelParams(omega, radius)
    w2r2, w2r4 = omega**2 * radius**2, omega**2 * radius**4
    zero = (RadialRegime.ZERO_L2_BOUNDED, RadialRegime.ZERO_L2_UNBOUNDED)
    neg = (RadialRegime.NEG_L2_BOUNDED, RadialRegime.NEG_L2_UNBOUNDED)
    for e in (0.2, 0.375, 0.4, 0.5, 0.8):
        for l_sq in (-1.0, -1e-9, -1e-13, 0.0, 1e-13, 1e-9, 0.25, 1.1):
            oc = classify(e * w2r2, l_sq * w2r4, p)
            if oc.regime in zero:
                assert oc.carrier == Carrier.HYPERBOLIC_CYLINDER and oc.conic is None, (e, l_sq)
            elif oc.regime in neg:
                assert oc.carrier == Carrier.ONE_SHEETED and oc.conic is None, (e, l_sq)
            elif oc.regime != RadialRegime.FORBIDDEN:
                assert oc.carrier == Carrier.TWO_SHEETED_UPPER, (e, l_sq)
                assert oc.conic is not None, (e, l_sq)


CONIC_OF_REGIME = {
    RadialRegime.CIRCULAR: ConicKind.CIRCLE,
    RadialRegime.BOUNDED_GENERIC: ConicKind.ELLIPSE,
    RadialRegime.ZERO_L2_BOUNDED: ConicKind.ELLIPSE,
    RadialRegime.THRESHOLD: ConicKind.EQUIDISTANT,
    RadialRegime.UNBOUNDED_GENERIC: ConicKind.ULTRAELLIPSE,
    RadialRegime.REPULSIVE_L2: ConicKind.ULTRAELLIPSE,
    RadialRegime.ZERO_L2_UNBOUNDED: ConicKind.ULTRAELLIPSE,
}


def _band_points(n, seed=24):
    """(E, L^2, params) on the regime boundaries, where the 1e-12 bands decide.

    Per draw of omega in 2^[-4, 4], R in 2^[-3, 3] and L^2 in (0.01, 0.99)
    omega^2 R^4: E = e_min, e_min +- be/2 and omega^2 R^2 / 2 +- be/2 at that
    L^2, and L^2 = +-1e-13 omega^2 R^4 at a bounded and an unbounded E, with
    be = 1e-12 max(1, |E|, omega^2 R^2 / 2).  The zero-L^2 band also gets its
    lower edge: E = be (1 +- 1/2) at both signs, and E = 3 be and just below
    omega sqrt(L^2) at L^2 = +1e-13 omega^2 R^4, where the turning
    discriminant is negative although the regime allows motion.
    """
    rng = random.Random(seed)
    for _ in range(n):
        params = ModelParams(2.0 ** rng.uniform(-4, 4), 2.0 ** rng.uniform(-3, 3))
        half = 0.5 * params.omega**2 * params.radius**2
        w2r4 = params.omega**2 * params.radius**4
        l_sq = rng.uniform(0.01, 0.99) * w2r4
        _, e_min = eff_minimum(l_sq, params)
        be = 1e-12 * max(1.0, half)  # |E| <= half here, to within be
        for e in (e_min, e_min - 0.5 * be, e_min + 0.5 * be, half - 0.5 * be, half + 0.5 * be):
            yield e, l_sq, params
        for e in (half * rng.uniform(0.1, 0.9), half * rng.uniform(1.1, 2.0), 0.5 * be, 1.5 * be):
            yield e, 1e-13 * w2r4, params
            yield e, -1e-13 * w2r4, params
        for e in (3.0 * be, 0.99 * params.omega * math.sqrt(1e-13 * w2r4)):
            yield e, 1e-13 * w2r4, params


def test_every_classify_field_follows_the_regime():
    # inside the bands the conic kind, turning roots and radii take the
    # regime's side, and nothing allowed raises
    zero = (RadialRegime.ZERO_L2_BOUNDED, RadialRegime.ZERO_L2_UNBOUNDED)
    seen = set()
    for e, l_sq, params in _band_points(400):
        point = (e, l_sq, params)
        oc = classify(e, l_sq, params)
        seen.add(oc.regime)
        if oc.regime == RadialRegime.FORBIDDEN:
            assert oc.conic is oc.r_min is oc.r_max is oc.period is None, point
            continue
        assert turning_radii(e, l_sq, params) == (oc.r_min, oc.r_max), point
        x1, x2 = radial_roots(e, l_sq, params)
        if l_sq > 0.0:
            assert orbit_conic(e, l_sq, params).kind == CONIC_OF_REGIME[oc.regime], point
        if oc.regime in zero:
            assert oc.r_min == 0.0 and oc.conic is None, point
        else:
            assert oc.conic.kind == CONIC_OF_REGIME[oc.regime], point
        if oc.regime == RadialRegime.CIRCULAR:
            assert oc.conic.eps == 0.0 and oc.conic.a_sq == oc.conic.b_sq == oc.conic.p, point
            assert x1 == x2 and oc.r_min == oc.r_max, point
    assert seen == {RadialRegime.CIRCULAR, RadialRegime.THRESHOLD, RadialRegime.FORBIDDEN, *zero}


def test_zero_l2_band_at_large_omega_has_no_conic():
    # |L^2| = 1e-9 lies inside the band 1e-12 omega^2 R^4 = 1e-6
    oc = classify(4e5, 1e-9, ModelParams(1e3, 1.0))
    assert oc.regime == RadialRegime.ZERO_L2_BOUNDED
    assert oc.carrier == Carrier.HYPERBOLIC_CYLINDER
    assert oc.conic is None


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


def test_trajectory_negative_l2_follows_the_regime(params):
    # inside the threshold band the regime is unbounded: the escape asymptote
    # replaces r_max, and its acosh argument rounds to at most 1 there
    bounded = (RadialRegime.NEG_L2_BOUNDED,)
    for e in (0.5 - 1e-11, 0.5 - 1e-13, math.nextafter(0.5, 0.0), 0.5, 0.5 + 1e-13):
        tr = trajectory_negative_l2(e, -1.0, 0.0, 0.0, params)
        assert (tr.r_max is not None) == (classify(e, -1.0, params).regime in bounded), e
        assert (tr.tau_min is None) == (tr.r_max is not None), e
    assert trajectory_negative_l2(math.nextafter(0.5, 0.0), -1.0, 0.0, 0.0, params).tau_min == 0.0
    with pytest.raises(ValueError):  # E = 0 with L^2 in the zero band is Forbidden
        trajectory_negative_l2(0.0, -1e-13, 0.0, 0.0, params)


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
    for chart, q1, phi in zip(traj.charts, traj.column("q1"), traj.column("phi")):
        if not chart.is_outer or q1 < 0.15:
            continue
        xs.append(math.tan(phi) / pphi)
        cots.append(1.0 / math.tanh(q1) ** 2)
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


def test_conic_figures_share_one_carrier(params, tmp_path):
    # figs 4-7 draw their orbits on the same upper-sheet mesh, built once per call
    manifest = export_figures(("fig4", "fig5", "fig6", "fig7"), str(tmp_path), params)
    carriers = [ds for fig in manifest["figures"] for ds in fig["datasets"]
                if ds["kind"] == "carrier"]
    assert [ds["file"] for ds in carriers] == [f"fig{k}_carrier.csv" for k in range(4, 8)]
    texts = {(tmp_path / ds["file"]).read_bytes() for ds in carriers}
    assert len(texts) == 1
    assert texts.pop().count(b"\n") == 1 + 36 * 73


@pytest.mark.parametrize("omega, radius", [(1.0, 1.0), (2.0, 0.5)])
def test_figure_datasets_lie_on_the_hyperboloid(omega, radius, tmp_path):
    # every orbit and carrier row, the fig 9 cylinder's included, has z.z = R^2
    manifest = export_figures(FIGURE_IDS, str(tmp_path), ModelParams(omega, radius))
    files = [ds["file"] for fig in manifest["figures"] for ds in fig["datasets"]
             if ds["kind"] != "effective_potential"]
    assert len(files) == 4 * 4 + 2 * 5 + 1 + 3 + 1
    for fname in files:
        with open(tmp_path / fname) as fh:
            rows = list(csv.DictReader(fh))
        z = np.array([[float(row[k]) for row in rows] for k in ("z0", "z1", "z2", "z3")])
        quad = z[0] ** 2 + z[1] ** 2 - z[2] ** 2 - z[3] ** 2
        scale = np.sum(z * z, axis=0)
        assert np.all(np.abs(quad - radius**2) <= 1e-12 * scale), fname


def test_export_figures_rejects_unknown(params, tmp_path):
    with pytest.raises(ValueError):
        export_figures(("fig12",), str(tmp_path), params)


def test_write_table_matches_fstring_join(tmp_path):
    from hyposc.dynamics import write_table

    rows = np.array([[np.nan, np.inf, -np.inf, -0.0],
                     [np.float32(0.1), 1.0 / 3.0, 5e-324, 1e22]])
    path = tmp_path / "table.csv"
    write_table(str(path), ("a", "b", "c", "d"), rows.T)
    expected = ["a,b,c,d"] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"
