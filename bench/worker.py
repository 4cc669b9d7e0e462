"""One session of a workload, in a fresh process: set up, timed rounds, checks.

    python3 bench/worker.py WORKLOAD SEED BUDGET_S TRACE WORK_DIR FIRST_ROUND

Set-up imports hyposc (in-process workloads), builds the inputs from SEED
and runs one untimed warm-up operation.  The timed phase then runs whole
rounds of the workload's operations for about BUDGET_S seconds; the checks run
after it on what the last round produced.  The last line of stdout is one
JSON object: the monotonic time at which the timed phase started, wall and
CPU seconds of each round, the latency of each operation that succeeded,
attempted and failed counts, peak RSS, check errors and, with TRACE=1, the
tracer's aggregates.
"""

import json
import os
import resource
import sys
import time

import workloads
from tracer import Tracer, merge as tracer_merge


def _cpu_seconds(in_process):
    """User+system CPU of this process, plus its waited-for children for the CLI."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    total = own.ru_utime + own.ru_stime
    if not in_process:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += kids.ru_utime + kids.ru_stime
    return total


def main(argv):
    name, seed, budget, trace, work_dir, first_round = argv
    seed, budget, trace, first_round = int(seed), float(budget), trace == "1", int(first_round)
    cls = workloads.WORKLOADS[name]
    errors = []
    tracer = None
    if cls.in_process:
        import hyposc  # noqa: F401  (set-up pays for the import, as a library user does)

        if trace:
            tracer = Tracer()
            tracer.install()
        wl = cls(seed, work_dir)
        warm = wl.run(0)
    else:
        trace_dir = os.path.join(work_dir, "traces") if trace else None
        if trace_dir:
            os.makedirs(trace_dir)
        wl = cls(seed, work_dir, dict(os.environ), trace_dir, first_round)
        proc = wl.warm_up()
        warm = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-300:]}"
        traces_before = wl.n_traces
    if warm is not None and not wl.expected_failure(0, warm):
        errors.append(f"warm-up failed: {warm}")
    if tracer is not None:
        tracer.reset()

    rounds, latencies, by_kind = [], [], {}
    attempted = failed = 0
    unexpected = {}
    t_start = time.monotonic()
    while True:
        if not cls.in_process:
            wl.start_round()
        w0, c0 = time.perf_counter(), _cpu_seconds(cls.in_process)
        for i in range(len(wl)):
            o0 = time.perf_counter()
            try:
                err = wl.run(i)
            except Exception as exc:  # an operation's failure is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - o0
            attempted += 1
            if err is None:
                latencies.append(dt)
                if not cls.in_process:
                    by_kind.setdefault(wl.kinds[i], []).append(dt)
            else:
                failed += 1
                if not wl.expected_failure(i, err):
                    unexpected.setdefault(i, err)
        rounds.append([time.perf_counter() - w0, _cpu_seconds(cls.in_process) - c0])
        # stop where the phase ends nearest the budget, in whole rounds
        if time.monotonic() - t_start + 0.5 * rounds[-1][0] >= budget:
            break
    who = resource.RUSAGE_SELF if cls.in_process else resource.RUSAGE_CHILDREN
    peak_rss_kib = resource.getrusage(who).ru_maxrss

    if tracer is not None:
        spans = tracer.snapshot()
    elif trace:
        snapshots = []
        for n in sorted(os.listdir(trace_dir))[traces_before:]:
            with open(os.path.join(trace_dir, n)) as fh:
                snapshots.append(json.load(fh))
        spans = tracer_merge(snapshots)
    else:
        spans = None
    errors += [f"operation {i} failed: {msg}" for i, msg in sorted(unexpected.items())]
    try:
        errors += wl.check()
    except (OSError, ValueError, KeyError) as exc:  # an output missing or malformed
        errors.append(f"checks could not read the outputs: {type(exc).__name__}: {exc}")
    print(json.dumps({
        "t_timed_start": t_start,
        "rounds": rounds,
        "latencies": latencies,
        "by_kind": by_kind,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kib": peak_rss_kib,
        "errors": errors,
        "trace": spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
