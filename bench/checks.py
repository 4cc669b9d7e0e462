"""Output checks of the benchmark, computed apart from the program.

Every expected value here comes from the model's closed forms, or from a
property the method must have, evaluated with this file's own code: the
radial period, the turning roots of the radial quadratic, the regime an
(E, L^2) point was built in, and the so(2,2) bracket relations, recomputed by
central differences of generator bilinears written out below.  Nothing is
compared with stored copies of earlier output, and nothing here imports
hyposc.

Each check returns a list of error strings; an empty list means the output
passed.
"""

import json
import math
import os

import numpy as np

# Tolerances, each relative to the scale of the quantity it guards.
PERIOD_RTOL = 1e-6        # measured radial period against pi / w0
CLOSURE_RTOL = 1e-6       # PeriodClosure time against k * T
CONSTRAINT_RTOL = 1e-9    # |z.z - R^2| against max(R^2, |z|^2)
ENERGY_RTOL = 1e-7        # |H - E| and |Lsq - L^2| against the orbit scale
SHAPE_RTOL = 1e-6         # s at turning points against the turning roots
BRACKET_RTOL = 1e-6       # central-difference bracket against its relation
IDENTITY_RTOL = 1e-9      # own identity residuals against their scale

BOUNDED = ("BoundedGeneric", "Circular", "NegL2Bounded", "ZeroL2Bounded")
REGIMES = (
    "BoundedGeneric", "Circular", "UnboundedGeneric", "Threshold",
    "RepulsiveL2", "NegL2Bounded", "NegL2Unbounded", "ZeroL2Bounded",
    "ZeroL2Unbounded", "Forbidden",
)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def radial_period(e, omega, radius):
    """T = pi / (omega sqrt(1 - 2E / omega^2 R^2)) of bounded motion."""
    return math.pi / (omega * math.sqrt(1.0 - 2.0 * e / (omega**2 * radius**2)))


def turning_roots(e, l_sq, omega, radius):
    """Roots x1 <= x2 of omega^2 R^4 X^2 - (2 E R^2 + L^2) X + L^2 = 0."""
    a = omega**2 * radius**4
    b = 2.0 * e * radius**2 + l_sq
    disc = max(b * b - 4.0 * a * l_sq, 0.0)  # a circular orbit has a double root
    root = math.sqrt(disc)
    # the cancellation-free pair: one root from the sum, the other by Vieta
    big = (b + root) / (2.0 * a) if b >= 0.0 else (b - root) / (2.0 * a)
    small = l_sq / (a * big) if big != 0.0 else 0.0
    return tuple(sorted((small, big)))


def shape_of_root(x):
    """s = (z0^2 - R^2)/R^2 at X = tanh^2 r, i.e. X / (1 - X)."""
    return x / (1.0 - x)


def e_min(l_sq, omega, radius):
    """Bottom of the effective potential for 0 < L^2 < omega^2 R^4."""
    return omega * math.sqrt(l_sq) - l_sq / (2.0 * radius**2)


def regime_point(regime, u1, u2, omega, radius):
    """An (E, L^2) pair strictly inside `regime`, placed by u1, u2 in [0, 1)."""
    half = 0.5 * omega**2 * radius**2
    w2r4 = omega**2 * radius**4
    l_in = (0.1 + 0.7 * u1) * w2r4          # 0 < L^2 < omega^2 R^4
    l_neg = -(0.1 + 0.9 * u1) * w2r4
    above = half * (1.1 + u2)                # E > omega^2 R^2 / 2
    if regime == "BoundedGeneric":
        lo = e_min(l_in, omega, radius)
        return lo + (0.15 + 0.7 * u2) * (half - lo), l_in
    if regime == "Circular":
        return e_min(l_in, omega, radius), l_in
    if regime == "UnboundedGeneric":
        return above, l_in
    if regime == "Threshold":
        return half, l_in
    if regime == "RepulsiveL2":
        return above, (1.2 + u1) * w2r4
    if regime == "NegL2Bounded":
        return half * (-0.5 + 1.3 * u2), l_neg
    if regime == "NegL2Unbounded":
        return above, l_neg
    if regime == "ZeroL2Bounded":
        return half * (0.1 + 0.8 * u2), 0.0
    if regime == "ZeroL2Unbounded":
        return above, 0.0
    if regime == "Forbidden":
        return (0.2 + 0.6 * u2) * e_min(l_in, omega, radius), l_in
    raise ValueError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# trajectory outputs
# ---------------------------------------------------------------------------


def read_csv(text):
    """Header plus a float matrix of a numeric CSV (text columns become nan)."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append([_num(v) for v in line.split(",")])
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _num(v):
    try:
        return float(v)
    except ValueError:
        return math.nan


def _columns(header, data, names):
    return [data[:, header.index(n)] for n in names]


def hyperboloid_errors(header, data, radius, where):
    """Rows whose z0^2 + z1^2 - z2^2 - z3^2 misses R^2 beyond rounding."""
    z0, z1, z2, z3 = _columns(header, data, ("z0", "z1", "z2", "z3"))
    quad = z0 * z0 + z1 * z1 - z2 * z2 - z3 * z3
    scale = np.maximum(radius**2, z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3)
    bad = np.flatnonzero(~(np.abs(quad - radius**2) <= CONSTRAINT_RTOL * scale))
    if bad.size:
        i = int(bad[0])
        return [f"{where}: {bad.size} row(s) off the hyperboloid, first row {i + 1} "
                f"z.z - R^2 = {quad[i] - radius**2:.3e}"]
    return []


def check_orbit(spec, period, csv_text, events, turning_s):
    """Check one integrated orbit against its closed forms.

    spec: dict with regime, e, l_sq, omega, radius, span.  period: what
    measure_period returned.  csv_text: the trajectory CSV.  events: the
    events JSON as a list of dicts.  turning_s: (detail, s) at each
    RadialTurningPoint, s read from the dense solution at the event time
    (empty when only the files are at hand).
    """
    regime, e, l_sq = spec["regime"], spec["e"], spec["l_sq"]
    omega, radius, span = spec["omega"], spec["radius"], spec["span"]
    half = 0.5 * omega**2 * radius**2
    errors = []

    header, data = read_csv(csv_text)
    if data.shape[0] < 2:
        return [f"{regime}: only {data.shape[0]} sample(s)"]
    errors += hyperboloid_errors(header, data, radius, regime)
    h, lsq = _columns(header, data, ("H", "Lsq"))
    e_scale = max(abs(e), half)
    dh = float(np.max(np.abs(h - e)))
    if not dh <= ENERGY_RTOL * e_scale:
        errors.append(f"{regime}: |H - E| = {dh:.3e} beyond {ENERGY_RTOL:g} * {e_scale:g}")
    l_scale = max(abs(l_sq), omega**2 * radius**4)
    dl = float(np.max(np.abs(lsq - l_sq)))
    if not dl <= ENERGY_RTOL * l_scale:
        errors.append(f"{regime}: |Lsq - L^2| = {dl:.3e} beyond {ENERGY_RTOL:g} * {l_scale:g}")

    # radial extremes against the roots of the turning quadratic
    x1, x2 = turning_roots(e, l_sq, omega, radius)
    s_min = shape_of_root(x1)
    s_max = shape_of_root(x2) if regime in BOUNDED else math.inf
    s_tol = SHAPE_RTOL * max(1.0, abs(s_min), abs(s_max) if regime in BOUNDED else 0.0)
    (z0,) = _columns(header, data, ("z0",))
    s = (z0 * z0 - radius**2) / radius**2
    if not (np.min(s) >= s_min - s_tol and np.max(s) <= s_max + s_tol):
        errors.append(f"{regime}: samples leave s in [{s_min:.6g}, {s_max:.6g}] "
                      f"(range [{np.min(s):.6g}, {np.max(s):.6g}])")
    for detail, s_ev in turning_s:
        want = s_min if detail == "pericenter" else s_max
        if not abs(s_ev - want) <= s_tol:
            errors.append(f"{regime}: {detail} at s = {s_ev:.12g}, turning root gives {want:.12g}")
    kinds = [ev["kind"] for ev in events]
    closures = [ev for ev in events if ev["kind"] == "PeriodClosure"]

    if regime not in BOUNDED:
        if closures:
            errors.append(f"{regime}: {len(closures)} PeriodClosure event(s) on an unbounded orbit")
        return errors

    t_rad = radial_period(e, omega, radius)
    if period is None or not abs(period - t_rad) <= PERIOD_RTOL * t_rad:
        errors.append(f"{regime}: measured period {period!r}, closed form {t_rad:.15g}")
    n_whole = int(math.floor(span / t_rad + 1e-9))
    if regime != "Circular":
        # the circular orbit has no turning points to anchor the closure pass
        details = {ev["detail"] for ev in events if ev["kind"] == "RadialTurningPoint"}
        if details != {"pericenter", "apocenter"}:
            errors.append(f"{regime}: turning points {sorted(details)} over "
                          f"{span / t_rad:.2f} periods")
        if len(closures) != n_whole:
            errors.append(f"{regime}: {len(closures)} PeriodClosure event(s) over "
                          f"{n_whole} whole period(s)")
        for ev in closures:
            k = round(ev["t"] / t_rad)
            if not abs(ev["t"] - k * t_rad) <= CLOSURE_RTOL * t_rad:
                errors.append(f"{regime}: PeriodClosure at t = {ev['t']!r}, not a multiple of T")
    if regime == "NegL2Bounded":
        crossings = [ev["t"] for ev in events if ev["kind"] == "ChartCrossing"]
        for k in range(n_whole):
            n = sum(1 for t in crossings if k * t_rad <= t < (k + 1) * t_rad)
            if n != 2:
                errors.append(f"{regime}: {n} ChartCrossing event(s) in radial period {k + 1}")
    elif "ChartCrossing" in kinds and l_sq > 0.0:
        errors.append(f"{regime}: ChartCrossing on an orbit with L^2 > 0")
    return errors


# ---------------------------------------------------------------------------
# command-line outputs
# ---------------------------------------------------------------------------


def check_classify(stdout, regime):
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"classify: stdout is not JSON: {stdout[:80]!r}"]
    if out.get("regime") != regime:
        return [f"classify: got {out.get('regime')!r} for a point built in {regime}"]
    return []


def check_simulate(spec, out_dir, first_dir):
    """The four simulate outputs, and byte equality with an identical earlier call."""
    errors = []
    names = ("trajectory.csv", "invariants.csv", "events.json", "report.json")
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            now = fh.read()
        with open(os.path.join(first_dir, name), "rb") as fh:
            before = fh.read()
        if now != before:
            errors.append(f"simulate: {name} differs between two identical calls")
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(out_dir, "events.json")) as fh:
        events = json.load(fh)
    with open(os.path.join(out_dir, "trajectory.csv")) as fh:
        csv_text = fh.read()
    regime = (report.get("classification") or {}).get("regime")
    if regime != spec["regime"]:
        errors.append(f"simulate: report regime {regime!r}, built in {spec['regime']}")
    # the files carry no dense output, so the turning values are checked
    # through the samples' range only
    errors += check_orbit(spec, report.get("measured_period"), csv_text, events, ())
    return errors


def check_bracket_report(report, where):
    """Every row that is not flagged passed, below the report's tolerance."""
    errors = []
    tol = report["tolerance"]
    for row in report["pairs"]:
        if row["flagged"]:
            continue
        res = row["max_residual"]
        if row["passed"] is not True or not (res < tol):
            errors.append(f"{where}: {row['bracket']} -> {row['expected']} failed "
                          f"(residual {res!r}, tolerance {tol:g})")
    if report["passed"] is not True:
        errors.append(f"{where}: report not passed")
    return errors


def check_identities_report(report, where):
    errors = []
    for row in report["checks"]:
        if row["passed"] is None:
            continue
        if row["passed"] is not True:
            errors.append(f"{where}: identity {row['identity']!r} failed "
                          f"(residual {row['max_residual']!r})")
    if report["passed"] is not True:
        errors.append(f"{where}: report not passed")
    return errors


VERIFY_REPORTS = {"so22": ("so22.json", check_bracket_report),
                  "appendix_a": ("appendix_a.json", check_bracket_report),
                  "identities": ("identities.json", check_identities_report)}


def check_verify_dir(out_dir, suites):
    errors = []
    for suite in suites:
        name, check = VERIFY_REPORTS[suite]
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            errors.append(f"verify: {name} not written")
            continue
        with open(path) as fh:
            errors += check(json.load(fh), f"verify {name}")
    return errors


ORBIT_KINDS = ("orbit", "orbit_outer", "orbit_inner", "orbit_numeric", "carrier")


def check_figures(out_dir, fig_ids, radius=1.0):
    """The manifest names every dataset written, and every z row is on the shell."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    errors = []
    got = [entry["figure"] for entry in manifest["figures"]]
    if got != list(fig_ids):
        errors.append(f"figure: manifest lists {got}, asked for {list(fig_ids)}")
    listed = {}
    for entry in manifest["figures"]:
        for ds in entry["datasets"]:
            listed[ds["file"]] = ds["kind"]
    prefixes = tuple(f"{fid}_" for fid in fig_ids)
    written = {f for f in os.listdir(out_dir) if f.endswith(".csv") and f.startswith(prefixes)}
    for f in sorted(written - set(listed)):
        errors.append(f"figure: dataset {f} missing from the manifest")
    for f in sorted(set(listed) - written):
        errors.append(f"figure: manifest lists {f}, which was not written")
    for f in sorted(set(listed) & written):
        if listed[f] not in ORBIT_KINDS:
            continue
        with open(os.path.join(out_dir, f)) as fh:
            header, data = read_csv(fh.read())
        errors += hyperboloid_errors(header, data, radius, f"figure {f}")
    return errors


# ---------------------------------------------------------------------------
# bracket relations by central differences of the benchmark's own bilinears
# ---------------------------------------------------------------------------

G = np.array([-1.0, -1.0, 1.0, 1.0])


def outer_phase(coords, radius):
    """(z, p) on the outer_plus chart: z(r, tau, phi) and p = G J g^-1 p_q."""
    r, tau, phi, pr, ptau, pphi = coords
    sh, ch = math.sinh(r), math.cosh(r)
    st, ct = math.sinh(tau), math.cosh(tau)
    sp, cp = math.sin(phi), math.cos(phi)
    z = radius * np.array([ch, sh * st, sh * ct * cp, sh * ct * sp])
    jac = radius * np.array([
        [sh, 0.0, 0.0],
        [ch * st, sh * ct, 0.0],
        [ch * ct * cp, sh * st * cp, -sh * ct * sp],
        [ch * ct * sp, sh * st * sp, sh * ct * cp],
    ])
    gj = G[:, None] * jac
    metric = jac.T @ gj
    p = gj @ np.linalg.solve(metric, np.array([pr, ptau, pphi]))
    return z, p


def bilinears(coords, omega, radius):
    """Generators, the tensor D (in the L1 = +p_phi convention) and energies."""
    z, p = outer_phase(coords, radius)
    z0, z1, z2, z3 = z
    p0, p1, p2, p3 = p
    l1 = -(z2 * p3 - z3 * p2)
    l2 = -(z1 * p3 + z3 * p1)
    l3 = z1 * p2 + z2 * p1
    n = (z0 * p1 - z1 * p0, -(z0 * p2 + z2 * p0), -(z0 * p3 + z3 * p0))
    zs = (z1, z2, z3)
    r2 = radius**2
    out = {"L1": l1, "L2": l2, "L3": l3, "N1": n[0], "N2": n[1], "N3": n[2],
           "Lt1": -l1, "Lt2": l2, "Lt3": -l3}
    for i in range(3):
        for k in range(i, 3):
            out[f"D{i + 1}{k + 1}"] = (n[i] * n[k] / r2
                                       + omega**2 * r2 * zs[i] * zs[k] / (z0 * z0))
    out["H_free"] = 0.5 * (-p0 * p0 - p1 * p1 + p2 * p2 + p3 * p3)
    out["H"] = out["H_free"] + 0.5 * omega**2 * r2 * (z2 * z2 + z3 * z3 - z1 * z1) / (z0 * z0)
    return out


def cd_bracket(a, b, coords, omega, radius):
    """{a, b} = sum_i da/dq_i db/dp_i - da/dp_i db/dq_i, 4th-order central differences."""
    grads = {a: np.empty(6), b: np.empty(6)}
    for i in range(6):
        h = 1e-3 * max(1.0, abs(coords[i]))
        vals = []
        for k in (-2.0, -1.0, 1.0, 2.0):
            c = list(coords)
            c[i] += k * h
            vals.append(bilinears(c, omega, radius))
        for name in (a, b):
            f = [v[name] for v in vals]
            grads[name][i] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    ga, gb = grads[a], grads[b]
    return float(sum(ga[i] * gb[i + 3] - ga[i + 3] * gb[i] for i in range(3)))


# One relation per family: {a, b} = rhs(values, omega^2, 1/R^2).
SO22_RELATIONS = (
    ("rotations", "L1", "L2", lambda v, w2, ir2: -v["L3"]),
    ("boosts", "N1", "N2", lambda v, w2, ir2: -v["L3"]),
    ("mixed", "L1", "N2", lambda v, w2, ir2: -v["N3"]),
)
DF_RELATIONS = (
    ("tensor-rotation", "D12", "Lt1", lambda v, w2, ir2: -v["D13"]),
    ("diagonal zero", "Lt1", "D11", lambda v, w2, ir2: 0.0),
    ("tensor-tensor", "D11", "D12",
     lambda v, w2, ir2: 2.0 * w2 * v["Lt3"] + 2.0 * ir2 * v["Lt3"] * v["D11"]),
    ("fitted", "D12", "D13",
     lambda v, w2, ir2: -w2 * v["Lt1"] - 2.0 * ir2 * v["Lt1"] * v["D11"]),
)


def check_relations(relations, states, omega, radius, where):
    """Recompute one bracket per family at the given chart states."""
    errors = []
    w2, ir2 = omega**2, 1.0 / radius**2
    for coords in states:
        v = bilinears(coords, omega, radius)
        for family, a, b, rhs in relations:
            want = rhs(v, w2, ir2)
            got = cd_bracket(a, b, coords, omega, radius)
            scale = max(1.0, abs(v[a] * v[b]), abs(want))
            if not abs(got - want) <= BRACKET_RTOL * scale:
                errors.append(f"{where}: {family} {{{a}, {b}}} = {got:.12g} by central "
                              f"differences, relation gives {want:.12g}")
    return errors


def check_identities_at(states, omega, radius, where):
    """Casimir and trace identities from the benchmark's own bilinears."""
    errors = []
    r2 = radius**2
    for coords in states:
        v = bilinears(coords, omega, radius)
        l_sq = v["L1"] ** 2 - v["L2"] ** 2 - v["L3"] ** 2
        c1 = v["N1"] * v["L1"] - v["N2"] * v["L2"] - v["N3"] * v["L3"]
        c2 = v["N1"] ** 2 - v["N2"] ** 2 - v["N3"] ** 2 + l_sq
        trace = 0.5 * (-v["D11"] + v["D22"] + v["D33"]) - 0.5 * l_sq / r2
        scale = max(1.0, abs(v["D11"]), abs(v["D22"]), abs(v["D33"]), abs(v["H"]))
        for name, res in (("C1 = 0", c1), ("C2 + 2 R^2 H_free = 0", c2 + 2.0 * r2 * v["H_free"]),
                          ("trace identity", trace - v["H"])):
            if not abs(res) <= IDENTITY_RTOL * scale:
                errors.append(f"{where}: {name} residual {res:.3e} at {coords}")
    return errors
