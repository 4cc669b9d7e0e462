"""Command-line front end: simulate, classify, verify, figure.

Runs are described by a JSON config (see docs/runconfig.schema.json); the
other subcommands take plain flags.  Exit codes are a stable contract:
0 success, 2 usage or config error, 3 numeric failure.  All file outputs are
deterministic — rerunning a command with the same inputs reproduces the same
bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import orbits
from .dynamics import (
    IntegrationConfig,
    IntegrationError,
    Mode,
    Trajectory,
    atomic_write_text,
    integrate,
    measure_period,
)
from .geometry import ChartId, ChartPoint, ModelParams, PhaseState, lift_coords
from .invariants import IDENTITIES, identity_residuals, invariant_coords
from .poisson import SAMPLE_CHART, sample_coords, verify_df_algebra, verify_so22
# single-state views kept reachable through this module (bench/tracer.py wraps them)
from .geometry import momentum_lift  # noqa: F401
from .invariants import check_identities, evaluate_invariants  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

OUTPUT_KINDS = ("TrajectoryCsv", "InvariantsCsv", "EventsJson", "ReportJson", "FigureSet")
_MODE_TOKENS = {"Free": Mode.FREE, "Oscillator": Mode.OSCILLATOR}
_CHART_TOKENS = {c.value: c for c in ChartId}


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutputSpec:
    kind: str
    path: str
    fig_ids: tuple = ()  # FigureSet only; empty means all


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    mode: Mode
    initial: PhaseState
    analytic: Optional[tuple]  # (e, l_sq) when the run was posed that way
    integration: IntegrationConfig
    outputs: tuple


def _require_keys(obj, allowed, where: str):
    """Raise unless ``obj`` is a JSON object whose keys are all in ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _token(table: dict, value):
    """The entry of ``table`` named by a string ``value``; None for anything else."""
    return table.get(value) if isinstance(value, str) else None


def _parse_params(obj) -> ModelParams:
    _require_keys(obj, ("omega", "radius"), "params")
    try:
        return ModelParams(float(obj.get("omega", 1.0)), float(obj.get("radius", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params: {exc}") from exc


def _parse_state(obj, params: ModelParams) -> PhaseState:
    fields = ("q1", "q2", "phi", "p1", "p2", "pphi")
    _require_keys(obj, ("chart",) + fields, "initial.state")
    chart = _token(_CHART_TOKENS, obj.get("chart"))
    if chart is None:
        raise ConfigError(
            f"initial.state.chart must be one of {sorted(_CHART_TOKENS)}"
        )
    try:
        values = [float(obj[k]) for k in fields]
    except KeyError as exc:
        raise ConfigError(f"initial.state missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad initial state: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError("initial.state must be finite")
    try:
        return PhaseState(ChartPoint(chart, *values[:3]), *values[3:])
    except ValueError as exc:
        raise ConfigError(f"bad initial state: {exc}") from exc


def _parse_analytic(obj, params: ModelParams):
    _require_keys(obj, ("e", "l_sq"), "initial.analytic")
    try:
        e, l_sq = float(obj["e"]), float(obj["l_sq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad analytic spec: {exc}") from exc
    if not (math.isfinite(e) and math.isfinite(l_sq)):
        raise ConfigError("analytic spec must be finite")
    if e < 0.0 and l_sq >= 0.0:
        raise ConfigError("negative energy requires l_sq < 0")
    try:
        state = orbits.canonical_state(e, l_sq, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return state, (e, l_sq)


def _parse_integration(obj):
    if obj is None:
        return IntegrationConfig()
    removed = ("method", "boundary_band")
    _require_keys(obj, ("rel_tol", "abs_tol", "max_step", "t_span") + removed, "integration")
    for key in removed:
        if key in obj:
            raise ConfigError(
                f"integration.{key} is no longer accepted: the representation is "
                "now chosen from the initial state"
            )
    span = obj.get("t_span", (0.0, 10.0))
    if not (isinstance(span, (list, tuple)) and len(span) == 2):
        raise ConfigError("integration.t_span must be [t0, t1]")
    try:
        kwargs = {"t_span": (float(span[0]), float(span[1]))}
        for key in ("rel_tol", "abs_tol"):
            if key in obj:
                kwargs[key] = float(obj[key])
        if obj.get("max_step") is not None:
            kwargs["max_step"] = float(obj["max_step"])
        return IntegrationConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integration block: {exc}") from exc


def _parse_outputs(items) -> tuple:
    if not isinstance(items, list) or not items:
        raise ConfigError("'outputs' must be a non-empty list")
    specs = []
    for i, obj in enumerate(items):
        _require_keys(obj, ("kind", "path", "ids"), f"outputs[{i}]")
        kind = obj.get("kind")
        if kind not in OUTPUT_KINDS:
            raise ConfigError(f"outputs[{i}].kind must be one of {OUTPUT_KINDS}")
        path = obj.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError(f"outputs[{i}].path must be a non-empty string")
        ids = obj.get("ids", [])
        if not isinstance(ids, list):
            raise ConfigError(f"outputs[{i}].ids must be a list of figure ids")
        ids = tuple(ids)
        if ids and kind != "FigureSet":
            raise ConfigError(f"outputs[{i}].ids is only valid for FigureSet")
        for fid in ids:
            if fid not in orbits.FIGURE_IDS:
                raise ConfigError(f"outputs[{i}]: unknown figure id {fid!r}")
        specs.append(OutputSpec(kind, path, ids))
    paths = [s.path for s in specs]
    if len(set(paths)) != len(paths):
        raise ConfigError("output paths must be distinct")
    return tuple(specs)


def load_config(obj: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig."""
    _require_keys(obj, ("params", "mode", "initial", "integration", "outputs"), "config")
    params = _parse_params(obj.get("params", {}))

    mode = _token(_MODE_TOKENS, obj.get("mode", "Oscillator"))
    if mode is None:
        raise ConfigError(f"mode must be one of {sorted(_MODE_TOKENS)}")

    initial = obj.get("initial")
    _require_keys(initial, ("state", "analytic"), "initial")
    has_state = "state" in initial
    has_analytic = "analytic" in initial
    if has_state == has_analytic:
        raise ConfigError("initial must contain exactly one of 'state' or 'analytic'")
    if has_state:
        state, analytic = _parse_state(initial["state"], params), None
    else:
        if mode is Mode.FREE:
            raise ConfigError("analytic initial specs describe oscillator runs only")
        state, analytic = _parse_analytic(initial["analytic"], params)

    integration = _parse_integration(obj.get("integration"))
    outputs = _parse_outputs(obj.get("outputs"))
    return RunConfig(params, mode, state, analytic, integration, outputs)


def _read_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return load_config(obj)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _classification_dict(oc: orbits.OrbitClassification) -> dict:
    conic = None
    if oc.conic is not None:
        conic = {
            "p": oc.conic.p,
            "eps": oc.conic.eps,
            "a_sq": oc.conic.a_sq,
            "b_sq": oc.conic.b_sq,
            "kind": oc.conic.kind.value,
        }
    return {
        "regime": oc.regime.value,
        "carrier": oc.carrier.value,
        "r_min": oc.r_min,
        "r_max": oc.r_max,
        "period": oc.period,
        "conic": conic,
    }


# report.json's max_drift key of each tracked sample column
_DRIFT_KEYS = {"H": "H", "N1": "N1", "N2": "N2", "N3": "N3", "L1": "L1", "L2": "L2",
               "L3": "L3", "Lsq": "L_sq", "C1": "C1", "C2": "C2", "D33": "D33"}


def _drift_stats(traj: Trajectory) -> dict:
    """Max relative drift of each tracked invariant over the run."""
    out = {}
    for name, key in _DRIFT_KEYS.items():
        vals = traj.column(name)
        out[key] = float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))
    return out


def _report_dict(cfg: RunConfig, traj: Trajectory, files: dict) -> dict:
    e = float(traj.column("H")[0])
    l_sq = float(traj.column("Lsq")[0])
    counts = {}
    for ev in traj.events:
        counts[ev.kind.value] = counts.get(ev.kind.value, 0) + 1
    classification = None
    if cfg.mode is Mode.OSCILLATOR:
        ae, al = (cfg.analytic if cfg.analytic is not None else (e, l_sq))
        classification = _classification_dict(orbits.classify(ae, al, cfg.params))
    pt = cfg.initial.point
    return {
        "params": {"omega": cfg.params.omega, "radius": cfg.params.radius},
        "mode": "Free" if cfg.mode is Mode.FREE else "Oscillator",
        "initial": {
            "chart": pt.chart.value,
            "q1": pt.q1, "q2": pt.q2, "phi": pt.phi,
            "p1": cfg.initial.p1, "p2": cfg.initial.p2, "pphi": cfg.initial.pphi,
            "energy": e,
            "l_sq": l_sq,
        },
        "t_span": list(cfg.integration.t_span),
        "samples": traj.times.size,
        "events": counts,
        "measured_period": measure_period(traj),
        "classification": classification,
        "max_drift": _drift_stats(traj),
        "files": files,
    }


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    try:
        traj = integrate(cfg.initial, cfg.params, cfg.integration, mode=cfg.mode)
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    os.makedirs(out_dir, exist_ok=True)
    files = {}       # config-relative names (stable across --out choices)
    report_path = None
    for spec in cfg.outputs:
        path = spec.path if os.path.isabs(spec.path) else os.path.join(out_dir, spec.path)
        if spec.kind == "TrajectoryCsv":
            traj.to_csv(path)
        elif spec.kind == "InvariantsCsv":
            traj.to_invariants_csv(path)
        elif spec.kind == "EventsJson":
            traj.write_events_json(path)
        elif spec.kind == "FigureSet":
            ids = spec.fig_ids or orbits.FIGURE_IDS
            orbits.export_figures(ids, path, cfg.params)
        elif spec.kind == "ReportJson":
            report_path = path  # written last, mentions the other files
        files[spec.kind] = spec.path
    if report_path is not None:
        atomic_write_text(
            report_path, json.dumps(_report_dict(cfg, traj, files), indent=2) + "\n"
        )

    print(
        f"simulate: {traj.times.size} samples, {len(traj.events)} events, "
        f"{len(files)} output(s) in {out_dir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def cmd_classify(e: float, l_sq: float, omega: float, radius: float) -> int:
    for name, val in (("e", e), ("l_sq", l_sq), ("omega", omega), ("radius", radius)):
        if not math.isfinite(val):
            print(f"classify: {name} must be finite", file=sys.stderr)
            return EXIT_CONFIG
    try:
        params = ModelParams(omega, radius)
        oc = orbits.classify(e, l_sq, params)
    except ValueError as exc:
        print(f"classify: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = {"e": e, "l_sq": l_sq, "omega": omega, "radius": radius}
    out.update(_classification_dict(oc))
    print(json.dumps(out, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def identities_report(params: Optional[ModelParams] = None, n_points: int = 1000,
                      seed: int = 42) -> dict:
    """Max residual of each algebraic identity over seeded random states.

    Pass flags aggregate the per-state verdicts (which are scale-relative);
    informational rows keep passed = None.
    """
    params = params or ModelParams()
    y = lift_coords(SAMPLE_CHART, sample_coords(n_points, seed), params.radius)
    residuals, scale = identity_residuals(*invariant_coords(y[:4], y[4:], params), params)
    checks = [
        {
            "identity": name,
            "n_points": n_points,
            "max_residual": float(np.max(r)),
            "tol": tol,
            "passed": None if tol is None else bool(np.all(r < tol * scale)),
        }
        for (name, tol), r in zip(IDENTITIES, residuals)
    ]
    return {
        "label": "identities",
        "passed": all(c["passed"] for c in checks if c["passed"] is not None),
        "checks": checks,
    }


def _print_identities(report: dict):
    print(f"[{report['label']}]")
    width = max(len(c["identity"]) for c in report["checks"]) + 2
    for c in report["checks"]:
        status = "info" if c["passed"] is None else ("ok" if c["passed"] else "FAIL")
        tol = f" tol {c['tol']:g}" if c["tol"] is not None else ""
        print(
            f"  {c['identity']:<{width}} n={c['n_points']:<5d}"
            f" resid {c['max_residual']:9.2e}{tol}  {status}"
        )
    print(f"  => {'PASS' if report['passed'] else 'FAIL'}")


def cmd_verify(suite: str, seed: int, n_points: Optional[int],
               tol: Optional[float], out_dir: Optional[str]) -> int:
    if n_points is not None and n_points < 1:
        raise ConfigError(f"--points must be >= 1, got {n_points}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if tol is not None and not 0.0 < tol < math.inf:
        raise ConfigError(f"--tol must be positive and finite, got {tol}")
    if tol is not None and suite == "identities":
        fixed = ", ".join(f"{t:g}" for t in sorted({t for _, t in IDENTITIES if t is not None}))
        raise ConfigError(
            f"--tol does not apply to identities, whose tolerances are fixed "
            f"relative to each state's scale ({fixed})"
        )
    params = ModelParams()
    reports = []  # (name, passed, payload dict)

    kwargs = {"seed": seed}
    if n_points is not None:
        kwargs["n_points"] = n_points
    if tol is not None:
        kwargs["tol"] = tol
    # looked up at call time, so that a wrapper installed on this module applies
    for name, sweep in (("so22", verify_so22), ("appendix_a", verify_df_algebra)):
        if suite in (name, "all"):
            rep = sweep(params, **kwargs)
            print(rep.table())
            reports.append((name, rep.passed, rep.as_dict()))
    if suite in ("identities", "all"):
        rep = identities_report(params, n_points if n_points is not None else 1000, seed)
        _print_identities(rep)
        reports.append(("identities", rep["passed"], rep))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, _, payload in reports:
            atomic_write_text(
                os.path.join(out_dir, f"{name}.json"), json.dumps(payload, indent=2) + "\n"
            )

    return EXIT_OK if all(ok for _, ok, _ in reports) else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def cmd_figure(fig_id: str, out_dir: str) -> int:
    if fig_id == "all":
        ids = orbits.FIGURE_IDS
    else:
        key = f"fig{fig_id}" if not fig_id.startswith("fig") else fig_id
        if key not in orbits.FIGURE_IDS:
            print(
                f"figure: unknown id {fig_id!r} (expected 1..9 or all)", file=sys.stderr
            )
            return EXIT_CONFIG
        ids = (key,)
    manifest = orbits.export_figures(ids, out_dir)
    n_files = sum(len(entry["datasets"]) for entry in manifest["figures"])
    print(f"figure: wrote {n_files} dataset(s) + manifest.json in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyposc",
        description="Harmonic oscillator on the SO(2,2) hyperboloid: "
        "simulation, classification, verification and figure data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a run described by a JSON config")
    sim.add_argument("--config", required=True, help="path to the run configuration")
    sim.add_argument("--out", default=".", help="directory for relative output paths")

    cla = sub.add_parser("classify", help="classify an (E, L^2) pair")
    cla.add_argument("e", type=float, help="energy")
    cla.add_argument("l_sq", type=float, help="Casimir L^2 (may be negative)")
    cla.add_argument("--omega", type=float, default=1.0)
    cla.add_argument("--radius", type=float, default=1.0)

    ver = sub.add_parser("verify", help="run the algebra/identity verification sweeps")
    ver.add_argument("suite", choices=("so22", "appendix_a", "identities", "all"))
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--points", type=int, default=None, help="sample states per sweep")
    ver.add_argument("--tol", type=float, default=None,
                     help="pass tolerance override for so22 and appendix_a; identities keeps "
                     "its fixed relative tolerances, and rejects --tol when run alone")
    ver.add_argument("--out", default=None, help="also write JSON reports here")

    fig = sub.add_parser("figure", help="emit figure datasets as CSV")
    fig.add_argument("id", help="figure number 1..9, or all")
    fig.add_argument("--out", default=".", help="output directory")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _read_config_file(args.config)
            return cmd_simulate(cfg, args.out)
        if args.command == "classify":
            return cmd_classify(args.e, args.l_sq, args.omega, args.radius)
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed, args.points, args.tol, args.out)
        if args.command == "figure":
            return cmd_figure(args.id, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
