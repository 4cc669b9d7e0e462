"""Layer spans recorded from the benchmark's side of each module boundary.

`install` replaces public functions of hyposc's modules, at the names
through which the calling module reaches them (`hyposc.dynamics.solve_ivp`,
`hyposc.cli.check_identities`, ...), by wrappers that time each call.  A
span's self time is its duration minus the time of the wrapped calls made
inside it.  Aggregates are kept in memory per (span, parent span) and
written out when the process ends; nothing inside src/ changes.
"""

import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stack = []
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.durations = defaultdict(list)  # per-call times of the KEEP spans

    KEEP = ("cli.main",)

    def wrap(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        stack, spans = self.stack, self.spans
        keep = self.durations[name] if name in self.KEEP else None

        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dt = time.perf_counter() - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dt
                agg = spans[(name, parent[0] if parent is not None else None)]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[2]
                if keep is not None:
                    keep.append(dt)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        for values in self.durations.values():
            values.clear()

    def snapshot(self):
        return {
            "spans": [[name, parent, *agg] for (name, parent), agg in self.spans.items()],
            "counts": dict(self.counts),
            "durations": {k: list(v) for k, v in self.durations.items()},
        }

    def install(self):
        import hyposc.cli as cli
        import hyposc.dynamics as dyn
        import hyposc.orbits as orbits
        import hyposc.poisson as poisson

        wrap = self.wrap
        wrap(cli, "main", "cli.main")
        wrap(orbits, "classify", "orbits.classify")
        wrap(orbits, "export_figures", "orbits.export_figures", _count_figure_bytes)
        for owner in (dyn, cli, orbits):
            wrap(owner, "integrate", "dynamics.integrate")
        wrap(dyn, "solve_ivp", "dynamics.solve_ivp", _count_solver_work)
        wrap(dyn, "momentum_lift", "geometry.momentum_lift[dynamics]")
        wrap(dyn, "momentum_project", "geometry.momentum_project[dynamics]")
        wrap(dyn, "evaluate_invariants", "invariants.evaluate[dynamics]")
        wrap(cli, "momentum_lift", "geometry.momentum_lift[cli]")
        wrap(cli, "evaluate_invariants", "invariants.evaluate[cli]")
        wrap(cli, "check_identities", "invariants.check_identities")
        wrap(poisson, "momentum_lift", "geometry.momentum_lift[poisson]")
        for owner in (poisson, cli):
            wrap(owner, "verify_so22", "poisson.so22", _count_states)
            wrap(owner, "verify_df_algebra", "poisson.df_algebra", _count_states)
        wrap(cli, "identities_report", "cli.identities_report")
        for method in ("to_csv", "to_invariants_csv", "write_events_json"):
            wrap(dyn.Trajectory, method, "dynamics.export", _count_export_bytes)


def merge(snapshots):
    """One snapshot summing the spans and counts of several processes."""
    spans, counts, durations = {}, {}, {}
    for snap in snapshots:
        for name, parent, calls, total, self_s in snap["spans"]:
            agg = spans.setdefault((name, parent), [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for k, v in snap["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
        for k, v in snap["durations"].items():
            durations.setdefault(k, []).extend(v)
    return {"spans": [[n, p, *agg] for (n, p), agg in spans.items()],
            "counts": counts, "durations": durations}


def _count_solver_work(counts, args, kwargs, sol):
    counts["dynamics.rhs_calls"] += sol.nfev
    counts["dynamics.steps"] += len(sol.t) - 1


def _count_export_bytes(counts, args, kwargs, result):
    counts["dynamics.export_bytes"] += os.path.getsize(args[1])


def _count_figure_bytes(counts, args, kwargs, manifest):
    out_dir = args[1]
    files = ["manifest.json"] + [ds["file"] for fig in manifest["figures"]
                                 for ds in fig["datasets"]]
    counts["orbits.figure_bytes"] += sum(os.path.getsize(os.path.join(out_dir, f))
                                         for f in files)


def _count_states(counts, args, kwargs, report):
    counts["poisson.states"] += report.pairs[0].n_points
