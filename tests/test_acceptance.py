"""Acceptance gate: one test per shipping criterion, pinned tolerances.

Each criterion is a single test function so the verbose run shows exactly
one pass/fail line per criterion; the printed detail lines carry the
measured numbers behind each verdict.
"""

import csv
import math
import os

import numpy as np
import pytest

from hyposc.dynamics import (
    EventKind,
    IntegrationConfig,
    Mode,
    central_inversion,
    integrate,
    measure_period,
    phase_distance,
)
from hyposc.geometry import EmbeddingPoint, ModelParams, momentum_lift
from hyposc.invariants import check_identities, evaluate_invariants
from hyposc.orbits import (
    FIGURE_IDS,
    Carrier,
    ConicKind,
    RadialRegime,
    canonical_state,
    classify,
    contraction_check,
    eff_minimum,
    effective_potential,
    export_figures,
    orbit_conic,
    period_formula,
    radial_solution,
    trajectory_negative_l2,
)
from hyposc.poisson import sample_states, verify_df_algebra, verify_so22

TOL_CONSTRAINT = 1e-12
TOL_C1 = 1e-10
TOL_C2 = 1e-9
TOL_DRIFT = 1e-8
TOL_CLOSURE = 1e-6
TOL_PERIOD_REL = 1e-6
TOL_RADIAL = 1e-6
TOL_CONIC = 1e-8
TOL_AXES_PRODUCT = 1e-10
TOL_BRACKET = 1e-6
TOL_BACKEND_GAP = 1e-7
TOL_FITTED = 1e-9
TOL_INNER_BRANCH = 1e-6
SLOPE_BAND = 0.3
TOL_FIG_CURVE = 1e-12

N_ALGEBRA_STATES = 1000


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _y8(ph):
    return np.concatenate([ph.z.array, ph.momentum_array])


Y8_COLUMNS = ("z0", "z1", "z2", "z3", "pz0", "pz1", "pz2", "pz3")


# ---------------------------------------------------------------------------
# 1-2: constraint and Casimirs on seeded states
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seeded_invariants(params):
    states = sample_states(N_ALGEBRA_STATES, seed=42)
    out = []
    for st in states:
        ph = momentum_lift(st, params)
        out.append(evaluate_invariants(ph, params))
    return out


def test_criterion_01_constraint_and_first_casimir(params, seeded_invariants):
    r2 = params.radius**2
    worst_z = 0.0
    worst_c1 = 0.0
    for st in sample_states(N_ALGEBRA_STATES, seed=42):
        z = momentum_lift(st, params).z
        res = z.z0**2 + z.z1**2 - z.z2**2 - z.z3**2 - r2
        worst_z = max(worst_z, abs(res))
    for inv in seeded_invariants:
        worst_c1 = max(worst_c1, abs(inv.casimir1))
    ok = worst_z < TOL_CONSTRAINT * r2 and worst_c1 < TOL_C1
    _report(
        1,
        ok,
        f"{N_ALGEBRA_STATES} states: max |z.z - R^2| = {worst_z:.3e} "
        f"(tol {TOL_CONSTRAINT:.0e} R^2), max |C1| = {worst_c1:.3e} (tol {TOL_C1:.0e})",
    )


def test_criterion_02_second_casimir_matches_free_hamiltonian(params, seeded_invariants):
    r2 = params.radius**2
    worst = max(abs(inv.casimir2 + 2.0 * r2 * inv.free_hamiltonian) for inv in seeded_invariants)
    _report(
        2,
        worst < TOL_C2,
        f"{N_ALGEBRA_STATES} states: max |C2 + 2 R^2 H_free| = {worst:.3e} (tol {TOL_C2:.0e})",
    )


# ---------------------------------------------------------------------------
# 3-6: reference bounded orbit over ten periods
# ---------------------------------------------------------------------------


def test_criterion_03_invariant_drift_ten_periods(case_a):
    traj = case_a["traj"]
    tracked = {"H": "H", "L1": "L1", "L2": "L2", "L3": "L3", "L^2": "Lsq", "D33": "D33"}
    drifts = {}
    for name, column in tracked.items():
        vals = traj.column(column)
        v0 = vals[0]
        drifts[name] = max(abs(v - v0) for v in vals) / max(1.0, abs(v0))
    worst = max(drifts.values())
    _report(
        3,
        worst < TOL_DRIFT,
        "ten-period drift "
        + ", ".join(f"{k}={v:.2e}" for k, v in drifts.items())
        + f" (tol {TOL_DRIFT:.0e})",
    )


def test_criterion_04_closure_and_period_grid(case_a, params):
    traj = case_a["traj"]
    period = case_a["period"]
    # (a) the time-T map returns to the start modulo the central inversion
    x0 = np.array([traj.column(name)[0] for name in Y8_COLUMNS])
    xt = _y8(traj.ambient_at(period))
    dist = min(
        phase_distance(xt, x0, params.radius),
        phase_distance(xt, central_inversion(x0), params.radius),
    )
    closures = [e for e in traj.events if e.kind == EventKind.PERIOD_CLOSURE]
    closure_ok = dist < TOL_CLOSURE and closures and abs(closures[0].t - period) < TOL_CLOSURE * period

    # (b) measured period against the energy-only formula on a bounded grid
    worst_rel = 0.0
    for e in (0.38, 0.40, 0.42, 0.44, 0.46):
        for l_sq in (0.01, 0.04, 0.09, 0.16, 0.25):
            t_ref = period_formula(e, params)
            st = canonical_state(e, l_sq, params)
            tr = integrate(st, params, IntegrationConfig(t_span=(0.0, 2.2 * t_ref)))
            measured = measure_period(tr)
            worst_rel = max(worst_rel, abs(measured - t_ref) / t_ref)
    # the formula depends on R through omega^2 R^2 only; spot-check R != 1
    par2 = ModelParams(omega=1.0, radius=2.0)
    t_ref = period_formula(0.4, par2)
    tr = integrate(
        canonical_state(0.4, 0.09, par2), par2, IntegrationConfig(t_span=(0.0, 2.2 * t_ref))
    )
    worst_rel = max(worst_rel, abs(measure_period(tr) - t_ref) / t_ref)
    ok = closure_ok and worst_rel < TOL_PERIOD_REL
    _report(
        4,
        ok,
        f"closure distance {dist:.3e} at T={period:.6f} (tol {TOL_CLOSURE:.0e}); "
        f"5x5 grid + R=2: max |T_meas/T - 1| = {worst_rel:.3e} (tol {TOL_PERIOD_REL:.0e})",
    )


def _signed_s(chart, q1):
    if chart.is_outer:
        return math.sinh(q1) ** 2
    return -math.sin(q1) ** 2


def test_criterion_05_radial_closed_forms(case_a, neg_l2_traj, params):
    details = []
    worst_all = 0.0

    def check(label, traj, sol, t_max=None):
        nonlocal worst_all
        worst = 0.0
        for t, chart, q1 in zip(traj.times, traj.charts, traj.column("q1")):
            if t_max is not None and t > t_max:
                continue
            worst = max(worst, abs(_signed_s(chart, q1) - float(sol(t))))
        details.append(f"{label}={worst:.2e}")
        worst_all = max(worst_all, worst)

    # bounded reference orbit, one period from pericenter
    w0 = math.sqrt(0.2)
    check(
        "bounded",
        case_a["traj"],
        radial_solution(0.4, 0.25, params, t0=math.pi / (4.0 * w0)),
        t_max=case_a["period"],
    )
    # threshold orbit E = omega^2 R^2 / 2
    st = canonical_state(0.5, 0.25, params)
    tr = integrate(st, params, IntegrationConfig(t_span=(0.0, 20.0)))
    check("threshold", tr, radial_solution(0.5, 0.25, params))
    # repulsive high-L^2 orbit
    st = canonical_state(0.505, 1.1, params)
    tr = integrate(st, params, IntegrationConfig(t_span=(0.0, 20.0)))
    check("repulsive", tr, radial_solution(0.505, 1.1, params))
    # negative L^2, both charts, signed continuation
    w0 = math.sqrt(0.5)
    check(
        "neg_l2",
        neg_l2_traj["traj"],
        radial_solution(0.25, -1.0, params, t0=-math.pi / (4.0 * w0)),
    )
    # L^2 = 0 through the coordinate pole
    w0 = math.sqrt(0.6)
    t_ref = period_formula(0.2, params)
    st = canonical_state(0.2, 0.0, params)
    tr = integrate(st, params, IntegrationConfig(t_span=(0.0, 2.0 * t_ref)))
    check("zero_l2", tr, radial_solution(0.2, 0.0, params, t0=-math.pi / (4.0 * w0)))

    _report(
        5,
        worst_all < TOL_RADIAL,
        "max |s_num - s_closed|: " + ", ".join(details) + f" (tol {TOL_RADIAL:.0e})",
    )


def test_criterion_06_conic_orbit_geometry(case_a, params):
    from oracles import beltrami

    conic = orbit_conic(case_a["e"], case_a["l_sq"], params)
    b2, a2 = conic.b_sq, conic.a_sq
    worst_chart = 0.0
    worst_disk = 0.0
    traj = case_a["traj"]
    z = zip(*(traj.column(name) for name in ("z0", "z1", "z2", "z3")))
    for q1, phi, z_i in zip(traj.column("q1"), traj.column("phi"), z):
        x = math.tanh(q1) ** 2
        worst_chart = max(
            worst_chart,
            abs(x * (math.cos(phi) ** 2 / b2 + math.sin(phi) ** 2 / a2) - 1.0),
        )
        x1, x2, x3 = beltrami(EmbeddingPoint(*z_i), params)
        worst_disk = max(
            worst_disk,
            abs((x2**2 / b2 + x3**2 / a2) / params.radius**2 - 1.0),
            abs(x1),
        )
    product_err = abs(b2 * a2 - case_a["l_sq"] / (params.omega**2 * params.radius**4))
    ok = worst_chart < TOL_CONIC and worst_disk < TOL_CONIC and product_err < TOL_AXES_PRODUCT
    _report(
        6,
        ok,
        f"conic residual chart {worst_chart:.2e} / disk {worst_disk:.2e} "
        f"(tol {TOL_CONIC:.0e}); |B^2 A^2 - L^2/(omega^2 R^4)| = {product_err:.2e} "
        f"(tol {TOL_AXES_PRODUCT:.0e})",
    )


# ---------------------------------------------------------------------------
# 7: bracket algebra sweeps
# ---------------------------------------------------------------------------


def test_criterion_07_bracket_algebra(params):
    from oracles import DF_REGULAR_ROWS, backend_gap

    from hyposc.poisson import _tensor_values, sample_coords

    so22 = verify_so22(params, n_points=N_ALGEBRA_STATES, seed=42)
    assert so22.tolerance == TOL_BRACKET
    worst_so22 = max(p.max_residual for p in so22.pairs)

    df = verify_df_algebra(params, n_points=64, seed=42)
    regular = [p for p in df.pairs if not p.flagged]
    fitted = [p for p in regular if "fitted" in p.note]
    flagged = [p for p in df.pairs if p.flagged]
    worst_regular = max(p.max_residual for p in regular)
    coords = sample_coords(64, seed=42)
    worst_gap = max(backend_gap(_tensor_values, coords, params, DF_REGULAR_ROWS))
    worst_fitted = max(p.max_residual for p in fitted)

    # trace-coefficient identity of the tensor against H, swept separately
    worst_trace = 0.0
    for st in sample_states(N_ALGEBRA_STATES, seed=42):
        inv = evaluate_invariants(momentum_lift(st, params), params)
        rep = check_identities(inv, params)
        row = {c["identity"]: c["max_residual"] for c in rep["checks"]}
        worst_trace = max(worst_trace, row["H = (-D11 + D22 + D33)/2 - L^2/(2 R^2)"])

    ok = (
        so22.passed
        and worst_so22 < TOL_BRACKET
        and df.passed
        and worst_regular < TOL_BRACKET
        and worst_gap < TOL_BACKEND_GAP
        and worst_fitted < TOL_FITTED
        and len(flagged) == 3
        and worst_trace < TOL_FITTED
    )
    _report(
        7,
        ok,
        f"so(2,2) 15 brackets x {N_ALGEBRA_STATES} states: worst {worst_so22:.2e} "
        f"(tol {TOL_BRACKET:.0e}); tensor algebra worst {worst_regular:.2e}, "
        f"dual-vs-fd gap {worst_gap:.2e} (tol {TOL_BACKEND_GAP:.0e}), "
        f"fitted rows {worst_fitted:.2e} (tol {TOL_FITTED:.0e}), "
        f"{len(flagged)} flagged rows recorded; trace identity {worst_trace:.2e}",
    )


# ---------------------------------------------------------------------------
# 8: classifier claims on a 200-point grid
# ---------------------------------------------------------------------------


def test_criterion_08_classifier_grid(params):
    rng = np.random.default_rng(2026)
    pts = [(float(e), float(l)) for e, l in zip(rng.uniform(-1.0, 1.3, 170), rng.uniform(-1.5, 1.5, 170))]
    pts += [
        (0.375, 0.25), (0.18, 0.04), (0.495, 0.81),        # circular (E = U_min)
        (0.5, 0.04), (0.5, 0.25), (0.5, 0.81),             # equidistant threshold
        (0.5, 0.0), (0.2, 0.0), (0.8, 0.0),                # zero-L^2 family
        (0.55, 1.1), (0.7, 1.0), (1.2, 2.0),               # repulsive high L^2
        (0.4, 1.1), (0.2, 1.0), (-0.1, 0.0), (-0.3, 0.5), (0.3, 0.25),  # forbidden
        (0.25, -1.0), (0.5, -1.0), (-0.4, -0.7), (1.5, -2.0),           # negative L^2
        (0.4, 0.25), (0.45, 0.04), (0.6, 0.25), (1.2, 0.25),            # generic
        (0.45, 0.16), (0.38, 0.01), (0.42, 0.09), (0.46, 0.25), (0.44, 0.16),
    ]
    assert len(pts) == 200
    half = 0.5 * params.omega**2 * params.radius**2
    w2r4 = params.omega**2 * params.radius**4
    bounded_regimes = {
        RadialRegime.CIRCULAR,
        RadialRegime.BOUNDED_GENERIC,
        RadialRegime.ZERO_L2_BOUNDED,
        RadialRegime.NEG_L2_BOUNDED,
    }
    pad = 1e-9  # keeps float-exact curated points on the intended side
    checked = 0
    for e, l_sq in pts:
        oc = classify(e, l_sq, params)
        # (a) interior minimum exists exactly on 0 <= L^2 < omega^2 R^4
        assert (eff_minimum(l_sq, params) is not None) == (0.0 <= l_sq < w2r4), (e, l_sq)
        # (b) bounded motion below the saturation energy and above the well
        if l_sq > 0.0:
            if l_sq < w2r4:
                u_min = params.omega * math.sqrt(l_sq) - l_sq / (2.0 * params.radius**2)
                expect_bounded = e >= u_min - pad and e < half - pad
                expect_forbidden = e < u_min - pad
            else:
                expect_bounded = False
                expect_forbidden = e <= half + pad
        elif l_sq == 0.0:
            expect_bounded = pad < e < half - pad
            expect_forbidden = e <= pad
        else:
            expect_bounded = e < half - pad
            expect_forbidden = False
        assert (oc.regime in bounded_regimes) == expect_bounded, (e, l_sq, oc.regime)
        assert (oc.regime == RadialRegime.FORBIDDEN) == expect_forbidden, (e, l_sq, oc.regime)
        # (c) conic kinds: circle exactly at eps = 0, equidistant exactly at
        # the threshold energy with sub-critical L^2
        if oc.conic is not None:
            assert (oc.conic.kind == ConicKind.CIRCLE) == (oc.conic.eps <= 1e-12), (e, l_sq)
            assert (oc.conic.kind == ConicKind.EQUIDISTANT) == (
                abs(e - half) < pad and l_sq < w2r4
            ), (e, l_sq)
        # (d) carrier surface by the sign of L^2
        expect_carrier = (
            Carrier.TWO_SHEETED_UPPER
            if l_sq > 0.0
            else (Carrier.HYPERBOLIC_CYLINDER if l_sq == 0.0 else Carrier.ONE_SHEETED)
        )
        assert oc.carrier == expect_carrier, (e, l_sq, oc.carrier)
        # (e) turning radii fields match the regime family
        if oc.regime == RadialRegime.BOUNDED_GENERIC:
            assert oc.r_min is not None and oc.r_max is not None and oc.r_min < oc.r_max
        if oc.regime == RadialRegime.CIRCULAR:
            assert oc.r_min == oc.r_max and oc.period is not None
        if oc.regime == RadialRegime.FORBIDDEN:
            assert oc.r_min is None and oc.r_max is None and oc.period is None
        checked += 1
    _report(8, checked == 200, f"all classifier claims hold on {checked}/200 grid points")


# ---------------------------------------------------------------------------
# 9: negative-L^2 chart topology
# ---------------------------------------------------------------------------


def test_criterion_09_negative_l2_chart_structure(neg_l2_traj, params):
    traj, period = neg_l2_traj["traj"], neg_l2_traj["period"]
    crossings = [e for e in traj.events if e.kind == EventKind.CHART_CROSSING]
    first = [e for e in crossings if e.t < period]
    second = [e for e in crossings if period <= e.t < 2.0 * period]
    count_ok = len(first) == 2 and len(second) == 2
    pattern_ok = [e.detail for e in first] == ["outer->inner", "inner->outer"]

    curve = trajectory_negative_l2(
        neg_l2_traj["e"], neg_l2_traj["l_sq"], 0.0, 0.0, params
    )
    worst = 0.0
    n_inner = 0
    for chart, q1, q2 in zip(traj.charts, traj.column("q1"), traj.column("q2")):
        if chart.is_outer:
            continue
        n_inner += 1
        worst = max(worst, abs(1.0 / math.tan(q1) ** 2 - float(curve.inner(q2))))
    ok = count_ok and pattern_ok and n_inner > 10 and worst < TOL_INNER_BRANCH
    _report(
        9,
        ok,
        f"2 chart crossings per period (got {len(first)} + {len(second)}); "
        f"inner-branch residual {worst:.2e} over {n_inner} samples (tol {TOL_INNER_BRANCH:.0e})",
    )


# ---------------------------------------------------------------------------
# 10: flat-space contraction rate
# ---------------------------------------------------------------------------


def test_criterion_10_flat_contraction_slope(params):
    rep = contraction_check(0.75, 0.25, (10.0, 100.0, 1000.0))
    ok = abs(rep.slope + 2.0) < SLOPE_BAND
    _report(
        10,
        ok,
        f"log-log deviation slope {rep.slope:.6f} within -2 +/- {SLOPE_BAND} "
        f"(deviations {', '.join(f'{d:.2e}' for d in rep.deviations)})",
    )


# ---------------------------------------------------------------------------
# 11: figure data export
# ---------------------------------------------------------------------------


def test_criterion_11_figure_families(params, tmp_path):
    out = str(tmp_path)
    manifest = export_figures(FIGURE_IDS, out, params)
    entries = manifest["figures"]
    ids_ok = [e["figure"] for e in entries] == list(FIGURE_IDS)
    captions_ok = all(e.get("caption") for e in entries)
    files = 0
    for entry in entries:
        for ds in entry["datasets"]:
            path = os.path.join(out, ds["file"])
            assert os.path.exists(path) and os.path.getsize(path) > 0, ds["file"]
            files += 1
    assert os.path.exists(os.path.join(out, "manifest.json"))

    worst = 0.0
    for entry in entries[:3]:
        ds = entry["datasets"][0]
        with open(os.path.join(out, ds["file"])) as fh:
            rows = list(csv.DictReader(fh))
        for col, meta in ds["columns"].items():
            l_sq = meta["l_sq"]
            for row in rows:
                r = float(row["r"])
                if r == 0.0 and l_sq != 0.0:
                    continue
                worst = max(
                    worst, abs(float(row[col]) - effective_potential(r, l_sq, params))
                )
    ok = ids_ok and captions_ok and files >= 30 and worst < TOL_FIG_CURVE
    _report(
        11,
        ok,
        f"9 captioned figures, {files} datasets; potential-curve reconstruction "
        f"error {worst:.2e} (tol {TOL_FIG_CURVE:.0e})",
    )
