"""hyposc benchmark: cold CLI calls, an orbit scan and an algebra sweep.

    python3 bench/run.py --workload {cli_cold,orbit_scan,algebra_sweep,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package need not be installed.  Every
process started puts the checkout's src/ first on PYTHONPATH and runs without
HYPOSC_THREADS.  Load is one closed-loop client: one operation at a time.

A run is SESSIONS fresh worker processes (bench/worker.py) that each set up
and then time whole rounds of the workload for S / SESSIONS seconds.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 half the sessions
run with the tracer installed, and it prints the per-layer metrics plus the
tracing overhead against the untraced half.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 when every check passed, 1 when one failed and 2 when the benchmark could
not run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import merge

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_cold", "orbit_scan", "algebra_sweep")
SESSIONS = 4
RUN_DEADLINE_S = 170  # every process of a run has ended by then
IMPORT_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_median_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env.pop("HYPOSC_THREADS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_session(root, workload, seed, budget, trace, work_dir, first_round, deadline):
    os.makedirs(work_dir)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(seed),
           repr(budget), "1" if trace else "0", work_dir, str(first_round)]
    t_launch = time.monotonic()
    # its own process group, so that a timeout also stops the CLI process it waits on
    proc = subprocess.Popen(cmd, env=child_env(root), cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - t_launch, 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} session still running at the run's deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_timed_start"] - t_launch
    result["traced"] = trace
    return result


def import_seconds(root, deadline):
    """Median fresh-interpreter `import hyposc` minus median bare start."""
    env = child_env(root)
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for code, into in (("pass", bare), ("import hyposc", full)):
            t0 = time.perf_counter()
            try:
                subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                               timeout=max(deadline - time.monotonic(), 1.0))
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
                raise BenchError(f"import probe failed: {exc}") from exc
            into.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def _per(total, n, scale=1.0):
    return scale * total / n if n else 0.0


def layer_metrics(sessions, import_s):
    """Per-layer metrics from the traced sessions (and process walls from the rest)."""
    traced = [s for s in sessions if s["traced"]]
    plain = [s for s in sessions if not s["traced"]]
    rounds = sum(len(s["rounds"]) for s in traced)
    merged = merge(s["trace"] for s in traced)
    counts, durations = merged["counts"], merged["durations"]
    spans = {}  # name -> parent -> [calls, total, self]
    for name, parent, *agg in merged["spans"]:
        spans.setdefault(name, {})[parent] = agg

    def calls(name, parent=None):
        by_parent = spans.get(name, {})
        if parent is not None:
            return by_parent.get(parent, [0])[0]
        return sum(a[0] for a in by_parent.values())

    def total(name, parent=None, field=1):
        by_parent = spans.get(name, {})
        if parent is not None:
            return by_parent.get(parent, [0, 0.0, 0.0])[field]
        return sum(a[field] for a in by_parent.values())

    def sites(layer):
        return [n for n in spans if n == layer or n.startswith(layer + "[")]

    def layer_calls(layer):
        return sum(calls(n) for n in sites(layer))

    def layer_mean_us(layer):
        return _per(sum(total(n) for n in sites(layer)), layer_calls(layer), 1e6)

    def kind_ms(kind):
        lat = [x for s in plain for x in s["by_kind"].get(kind, [])]
        return 1e3 * statistics.median(lat) if lat else 0.0

    n_int = calls("dynamics.integrate")
    integ = "dynamics.integrate"
    assembly = sum(total(n, integ) for n in ("geometry.momentum_lift[dynamics]",
                                             "geometry.momentum_project[dynamics]",
                                             "invariants.evaluate[dynamics]"))
    steps = counts.get("dynamics.steps", 0.0)
    rhs = counts.get("dynamics.rhs_calls", 0.0)
    sweep_s = total("poisson.so22") + total("poisson.df_algebra")
    main_times = durations.get("cli.main", [])
    plain_wall = statistics.median(r[0] for s in plain for r in s["rounds"])
    traced_wall = statistics.median(r[0] for s in traced for r in s["rounds"])
    return {
        "hyposc.import_s": (import_s, "s"),
        "cli.classify_ms": (kind_ms("classify"), "ms"),
        "cli.simulate_ms": (kind_ms("simulate"), "ms"),
        "cli.verify_ms": (kind_ms("verify"), "ms"),
        "cli.figure_ms": (kind_ms("figure"), "ms"),
        "cli.main_ms": (1e3 * statistics.median(main_times) if main_times else 0.0, "ms"),
        "dynamics.integrate_ms": (_per(total(integ), n_int, 1e3), "ms"),
        "dynamics.solve_ivp_ms": (_per(total("dynamics.solve_ivp", integ), n_int, 1e3), "ms"),
        "dynamics.assembly_ms": (_per(assembly, n_int, 1e3), "ms"),
        "dynamics.self_ms": (_per(total(integ, field=2), n_int, 1e3), "ms"),
        "dynamics.solve_ivp_calls": (_per(calls("dynamics.solve_ivp"), rounds), "count"),
        "dynamics.rhs_calls": (_per(rhs, rounds), "count"),
        "dynamics.steps": (_per(steps, rounds), "count"),
        "dynamics.rhs_calls_per_step": (_per(rhs, steps), "ratio"),
        "dynamics.export_ms": (_per(total("dynamics.export"), rounds, 1e3), "ms"),
        "dynamics.export_bytes": (_per(counts.get("dynamics.export_bytes", 0.0), rounds), "B"),
        "geometry.momentum_lift_calls": (_per(layer_calls("geometry.momentum_lift"), rounds),
                                         "count"),
        "geometry.momentum_lift_us": (layer_mean_us("geometry.momentum_lift"), "us"),
        "geometry.momentum_project_calls": (
            _per(layer_calls("geometry.momentum_project"), rounds), "count"),
        "geometry.momentum_project_us": (layer_mean_us("geometry.momentum_project"), "us"),
        "invariants.evaluate_calls": (_per(layer_calls("invariants.evaluate"), rounds), "count"),
        "invariants.evaluate_us": (layer_mean_us("invariants.evaluate"), "us"),
        "poisson.so22_ms": (_per(total("poisson.so22"), calls("poisson.so22"), 1e3), "ms"),
        "poisson.df_algebra_ms": (
            _per(total("poisson.df_algebra"), calls("poisson.df_algebra"), 1e3), "ms"),
        "poisson.lift_calls": (_per(calls("geometry.momentum_lift[poisson]"), rounds), "count"),
        "poisson.states_per_s": (_per(counts.get("poisson.states", 0.0), sweep_s), "1/s"),
        "cli.identities_report_ms": (
            _per(total("cli.identities_report"), calls("cli.identities_report"), 1e3), "ms"),
        "invariants.check_identities_us": (layer_mean_us("invariants.check_identities"), "us"),
        "orbits.classify_us": (layer_mean_us("orbits.classify"), "us"),
        "orbits.export_figures_ms": (
            _per(total("orbits.export_figures"), calls("orbits.export_figures"), 1e3), "ms"),
        "orbits.figure_bytes": (_per(counts.get("orbits.figure_bytes", 0.0), rounds), "B"),
        "trace.overhead_pct": (100.0 * (traced_wall / plain_wall - 1.0), "%"),
    }


def end_to_end_metrics(sessions):
    walls = [r[0] for s in sessions for r in s["rounds"]]
    cpus = [r[1] for s in sessions for r in s["rounds"]]
    lat = [x for s in sessions for x in s["latencies"]]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_median_ms": (1e3 * statistics.median(lat), "ms"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mib": (statistics.median(s["peak_rss_kib"] for s in sessions) / 1024.0, "MiB"),
    }


def run_workload(root, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    budget = seconds / SESSIONS
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        sessions = [
            run_session(root, workload, seed, budget, trace and k % 2 == 1,
                        os.path.join(work, f"session{k}"), SESSIONS * seed + k, deadline)
            for k in range(SESSIONS)
        ]
        import_s = import_seconds(root, deadline) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    metrics = layer_metrics(sessions, import_s) if trace else end_to_end_metrics(sessions)
    errors = [e for s in sessions for e in s["errors"]]
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    rounds = sum(len(s["rounds"]) for s in sessions)
    ops = sum(len(s["latencies"]) for s in sessions)
    print(f"[{workload}] seed {seed}, {SESSIONS} sessions, {rounds} rounds, "
          f"{attempted} operations attempted, {failed} failed; "
          f"op_median_ms over {ops} successful operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for e in errors:
        print(f"  CHECK FAILED: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyposc", "__init__.py")):
        print("run from the root of a hyposc checkout: src/hyposc not found", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = results[names[0]] if len(names) == 1 else results
    print(json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
