"""The benchmark's checks accept today's outputs and reject corrupted copies.

No timing here.  Run with `PYTHONPATH=src python3 -m pytest bench`.
"""

import json
import os

import pytest

import checks
import run
import workloads
from hyposc import ModelParams, canonical_state
from hyposc.cli import identities_report
from hyposc.dynamics import IntegrationConfig, integrate, measure_period
from hyposc.orbits import export_figures
from hyposc.poisson import sample_states, verify_df_algebra, verify_so22

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _orbit(tmp_path, regime, omega=1.0, radius=1.0):
    e, l_sq = checks.regime_point(regime, 0.4, 0.6, omega, radius)
    span = 2.25 * checks.radial_period(e, omega, radius)
    params = ModelParams(omega, radius)
    traj = integrate(canonical_state(e, l_sq, params), params,
                     IntegrationConfig(t_span=(0.0, span)))
    path = tmp_path / "trajectory.csv"
    traj.to_csv(str(path))
    events = traj.events_as_dicts()
    turning = []
    for ev in events:
        if ev["kind"] == "RadialTurningPoint":
            z0 = traj.ambient_at(ev["t"]).z.z0
            turning.append((ev["detail"], (z0 * z0 - radius**2) / radius**2))
    spec = {"regime": regime, "e": e, "l_sq": l_sq, "omega": omega, "radius": radius,
            "span": span}
    return spec, measure_period(traj), path.read_text(), events, turning


@pytest.mark.parametrize("regime", ["BoundedGeneric", "NegL2Bounded", "ZeroL2Bounded"])
def test_orbit_check_rejects_period_off_by_1e4(tmp_path, regime):
    spec, period, csv_text, events, turning = _orbit(tmp_path, regime)
    assert checks.check_orbit(spec, period, csv_text, events, turning) == []
    bad = checks.check_orbit(spec, period * (1.0 + 1e-4), csv_text, events, turning)
    assert any("measured period" in e for e in bad)


def test_orbit_check_rejects_row_off_hyperboloid(tmp_path):
    spec, period, csv_text, events, turning = _orbit(tmp_path, "BoundedGeneric", 2.0, 0.5)
    lines = csv_text.split("\n")
    header = lines[0].split(",")
    row = lines[5].split(",")
    k = header.index("z2")
    row[k] = repr(float(row[k]) * (1.0 + 1e-6))
    lines[5] = ",".join(row)
    bad = checks.check_orbit(spec, period, "\n".join(lines), events, turning)
    assert any("off the hyperboloid" in e for e in bad)


def test_orbit_check_rejects_missing_chart_crossing(tmp_path):
    spec, period, csv_text, events, turning = _orbit(tmp_path, "NegL2Bounded")
    first = next(i for i, ev in enumerate(events) if ev["kind"] == "ChartCrossing")
    bad = checks.check_orbit(spec, period, csv_text, events[:first] + events[first + 1:],
                             turning)
    assert any("ChartCrossing" in e for e in bad)


def test_orbit_check_rejects_wrong_turning_value(tmp_path):
    spec, period, csv_text, events, turning = _orbit(tmp_path, "BoundedGeneric")
    moved = [(d, s * (1.0 + 1e-4)) for d, s in turning]
    assert any("turning root" in e
               for e in checks.check_orbit(spec, period, csv_text, events, moved))


@pytest.mark.parametrize("make", [
    lambda p: verify_so22(p, n_points=8, seed=3).as_dict(),
    lambda p: verify_df_algebra(p, n_points=4, seed=3).as_dict(),
])
def test_bracket_report_check_rejects_flipped_row(make):
    report = make(ModelParams(1.0, 2.0))
    assert checks.check_bracket_report(report, "t") == []
    row = next(r for r in report["pairs"] if not r["flagged"])
    row["passed"] = False
    assert checks.check_bracket_report(report, "t")


def test_identities_report_check_rejects_flipped_row():
    report = identities_report(ModelParams(0.5, 3.0), 20, 5)
    assert checks.check_identities_report(report, "t") == []
    next(r for r in report["checks"] if r["passed"] is not None)["passed"] = False
    assert checks.check_identities_report(report, "t")


def _coords(n, seed):
    return [(s.point.q1, s.point.q2, s.point.phi, s.p1, s.p2, s.pphi)
            for s in sample_states(n, seed)]


@pytest.mark.parametrize("omega,radius", workloads.SWEEP_SETS + ((1.0, 1.0),))
def test_own_brackets_and_identities_hold(omega, radius):
    states = _coords(3, 11)
    relations = checks.SO22_RELATIONS + checks.DF_RELATIONS
    assert checks.check_relations(relations, states, omega, radius, "t") == []
    assert checks.check_identities_at(states, omega, radius, "t") == []


def test_own_brackets_reject_a_wrong_relation():
    family, a, b, rhs = checks.SO22_RELATIONS[0]
    flipped = ((family, a, b, lambda v, w2, ir2: -rhs(v, w2, ir2)),)
    assert checks.check_relations(flipped, _coords(2, 11), 1.0, 1.0, "t")


def test_figure_check_rejects_dataset_missing_from_manifest(tmp_path):
    out = str(tmp_path)
    export_figures(("fig8", "fig4"), out)
    assert checks.check_figures(out, ("fig8", "fig4")) == []
    path = os.path.join(out, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    dropped = manifest["figures"][0]["datasets"].pop(1)
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    bad = checks.check_figures(out, ("fig8", "fig4"))
    assert any(dropped["file"] in e and "missing from the manifest" in e for e in bad)


def test_figure_check_rejects_row_off_hyperboloid(tmp_path):
    out = str(tmp_path)
    export_figures(("fig4",), out)
    path = os.path.join(out, "fig4_orbit_p0.3_eps0.3.csv")
    with open(path) as fh:
        lines = fh.read().split("\n")
    row = lines[3].split(",")
    row[1] = repr(float(row[1]) + 1e-6)  # z0
    lines[3] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    assert any("off the hyperboloid" in e for e in checks.check_figures(out, ("fig4",)))


def test_classify_check():
    assert checks.check_classify('{"regime": "Circular"}', "Circular") == []
    assert checks.check_classify('{"regime": "Circular"}', "BoundedGeneric")


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    empty = {"traced": True, "rounds": [[1.0, 1.0]], "by_kind": {},
             "trace": {"spans": [], "counts": {}, "durations": {}}}
    layers = run.layer_metrics([empty, dict(empty, traced=False)], 0.5)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in layers.items()]
