"""The local DOP853 stepper and brentq against scipy's, bit for bit.

scipy stays the reference: `_scipy_stretch` is solve_stretch as it was
written on scipy's DOP853 object, OdeSolution and brentq.  Each orbit is
integrated once through it and once through the port; samples, events and
dense evaluations must agree to the last bit.
"""

import bisect
import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution
from scipy.optimize import brentq as scipy_brentq

import hyposc
import hyposc.dynamics as dyn
from hyposc.dynamics import IntegrationConfig, IntegrationError, integrate

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEED = 41


def _orbit_specs():
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    case_a = {"regime": "case A", "e": 0.4, "l_sq": 0.25, "omega": 1.0, "radius": 1.0,
              "span": 10.0 * math.pi / math.sqrt(0.2)}
    return [case_a] + workloads.orbit_specs(SEED)


class _ScipySolution:
    """scipy's OdeSolution behind DenseSolution's one reader, `at`, which it
    answers one time at a time."""

    def __init__(self, ts, interpolants, n):
        self.ode, self.n = OdeSolution(ts, interpolants), n
        self.t_min, self.t_max = self.ode.t_min, self.ode.t_max

    def at(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.reshape([self.ode(float(t)) for t in ts], (ts.size, self.n))


def _scipy_stretch(fun, t_span, y0, events=(), *, rtol, atol, max_step=math.inf,
                   project=None, dt_proj=math.inf, check=None):
    t0, t_bound = float(t_span[0]), float(t_span[1])
    solver = DOP853(fun, t0, y0, t_bound, rtol=rtol, atol=atol, max_step=max_step)
    tol = 4.0 * np.finfo(float).eps
    direction = [getattr(ev, "direction", 0.0) for ev in events]
    g = [ev(t0, y0) for ev in events]
    t_events = [[] for _ in events]
    ts, ys, interpolants, t_proj = [t0], [solver.y], [], []
    t_last_proj = t0
    status = None
    message = None
    while status is None:
        message = solver.step()
        if solver.status == "failed":
            status = -1
            break
        if solver.status == "finished":
            status = 0
        t_old, t, y = solver.t_old, solver.t, solver.y
        if check is not None:
            check(t, y)
        dense = solver.dense_output()
        interpolants.append(dense)
        g_new = [ev(t, y) for ev in events]
        for i, (a, b, d) in enumerate(zip(g, g_new, direction)):
            if (d >= 0 and a <= 0 <= b) or (d <= 0 and a >= 0 >= b):
                t_events[i].append(
                    scipy_brentq(lambda s, ev=events[i]: ev(s, dense(s)), t_old, t,
                                 xtol=tol, rtol=tol)
                )
        g = g_new
        ts.append(t)
        ys.append(y)
        if project is not None and status is None and t - t_last_proj >= dt_proj:
            solver.y = project(solver.y)
            solver.f = solver.fun(t, solver.y)
            t_proj.append(t)
            t_last_proj = t
            g = [ev(t, solver.y) for ev in events]
    return dyn.Stretch(np.array(ts), np.array(ys).T, _ScipySolution(ts, interpolants, y0.size),
                       [np.asarray(te) for te in t_events], solver.nfev, status,
                       message or "", tuple(t_proj))


def _run(spec, monkeypatch, stretch):
    """(trajectory or error message, the solve_stretch results) of one spec."""
    results = []

    def recording(*args, **kwargs):
        results.append(stretch(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dyn, "solve_stretch", recording)
    params = hyposc.ModelParams(spec["omega"], spec["radius"])
    state = hyposc.orbits.canonical_state(spec["e"], spec["l_sq"], params)
    try:
        traj = integrate(state, params, IntegrationConfig(t_span=(0.0, spec["span"])))
    except IntegrationError as exc:
        traj = str(exc)
    monkeypatch.undo()
    return traj, results


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _sample_rows(traj):
    return traj.charts, _bits(traj.table)


def _ambient(traj, t):
    ph = traj.ambient_at(t)
    return _bits([ph.z.z0, ph.z.z1, ph.z.z2, ph.z.z3, ph.p0, ph.p1, ph.p2, ph.p3])


SPECS = _orbit_specs()


@pytest.mark.parametrize("spec", SPECS, ids=[f"{i}-{s['regime']}" for i, s in enumerate(SPECS)])
def test_integrate_matches_scipy_dop853_bit_for_bit(spec, monkeypatch):
    traj, (mine,) = _run(spec, monkeypatch, dyn.solve_stretch)
    ref_traj, (ref,) = _run(spec, monkeypatch, _scipy_stretch)
    if isinstance(ref_traj, str):  # the benchmark's drift-abort specs
        assert traj == ref_traj
        return
    assert _bits(mine.t) == _bits(ref.t) and _bits(mine.y) == _bits(ref.y)
    assert [_bits(te) for te in mine.t_events] == [_bits(te) for te in ref.t_events]
    assert mine.t_proj == ref.t_proj
    assert _sample_rows(traj) == _sample_rows(ref_traj)
    assert traj.events == ref_traj.events
    # scipy builds every step's three extra dense stages; the port only
    # those of steps an event root evaluated
    saved = ref.nfev - mine.nfev
    assert saved % 3 == 0 and 0 <= saved // 3 <= mine.t.size - 1
    # dense evaluations, on step boundaries (where the earlier step is
    # used) and between them
    times = np.concatenate([mine.t, np.linspace(0.0, spec["span"], 41)])
    for t in times:
        assert _ambient(traj, float(t)) == _ambient(ref_traj, float(t)), t


def test_solve_stretch_matches_scipy_with_projection_and_events():
    # a rotation plus slow growth, halved in place every 0.7 time units; both
    # event functions change sign several times over the span
    def rhs(t, y):
        return (y[1], -y[0], 0.1 * y[2])

    events = [lambda t, y: y[0], lambda t, y: y[1] - 0.3 * y[2]]
    kw = dict(rtol=1e-9, atol=1e-12, project=lambda y: 0.5 * y, dt_proj=0.7)
    y0 = np.array([1.0, 0.0, 1.0])
    mine = dyn.solve_stretch(rhs, (0.0, 12.0), y0, events, **kw)
    ref = _scipy_stretch(rhs, (0.0, 12.0), y0, events, **kw)
    assert mine.status == ref.status == 0
    assert _bits(mine.t) == _bits(ref.t) and _bits(mine.y) == _bits(ref.y)
    assert [_bits(te) for te in mine.t_events] == [_bits(te) for te in ref.t_events]
    assert all(te.size >= 3 for te in mine.t_events)
    for t in np.linspace(0.0, 12.0, 97):
        assert _bits(mine.sol.at([t])[0]) == _bits(ref.sol.at([t])[0])


def test_dense_solution_rows_are_their_steps_interpolants():
    # each row of DenseSolution.at is its step's own scalar evaluation: a
    # time on a step boundary is read on the earlier step, and times before
    # t_min or after t_max on the first or last step
    def rhs(t, y):
        return (y[1], -y[0])

    sol = dyn.solve_stretch(rhs, (0.0, 6.0), np.array([1.0, 0.0]), rtol=1e-9, atol=1e-12).sol
    bounds = np.array(sol.ts)
    assert len(sol.steps) >= 4
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    ts = np.concatenate([bounds, mids, [-0.5, 6.5, -0.5], bounds[2:4], mids[::-1]])
    ts = np.random.default_rng(SEED).permutation(ts)
    got = sol.at(ts)
    assert got.shape == (ts.size, 2)
    for t, row in zip(ts, got):
        step = min(max(bisect.bisect_left(sol.ts, t) - 1, 0), len(sol.steps) - 1)
        assert _bits(row) == _bits(sol.steps[step](t)), t
    assert sol.at([]).shape == (0, 2)


def test_solve_stretch_reports_too_small_step():
    # y' = y^2 blows up at t = 1: the step size collapses, as with scipy
    def rhs(t, y):
        return y * y

    mine = dyn.solve_stretch(rhs, (0.0, 2.0), np.array([1.0]), rtol=1e-10, atol=1e-12)
    ref = _scipy_stretch(rhs, (0.0, 2.0), np.array([1.0]), rtol=1e-10, atol=1e-12)
    assert mine.status == ref.status == -1
    assert mine.message == ref.message == dyn.TOO_SMALL_STEP
    assert _bits(mine.t) == _bits(ref.t)


def test_solve_stretch_stops_on_a_nan_step():
    # no first step size follows from a NaN derivative at t0: the stretch
    # must stop there, not spin
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) > 1000:
            raise RuntimeError("solve_stretch kept stepping on a NaN step size")
        return np.full_like(y, np.nan)

    sol = dyn.solve_stretch(rhs, (0.0, 2.0), np.array([1.0, 0.5]), rtol=1e-10, atol=1e-12)
    assert sol.status == -1
    assert sol.message == dyn.NONFINITE_STEP
    assert sol.nfev == len(calls) <= 2
    assert _bits(sol.t) == _bits(np.array([0.0]))


BRACKETS = [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 2.0),
    (lambda x: (x - 1e-3) ** 5, -0.5, 0.75),
    (lambda x: math.sin(x) - 0.5, 0.0, 1.5),
    (lambda x: x, 0.0, 1.0),  # a zero at an end point
]


def _outcome(root_finder, *args, **kwargs):
    try:
        return root_finder(*args, **kwargs)
    except RuntimeError as exc:  # (x - 1e-3)^5 does not converge at xtol = 4 eps
        return str(exc)


@pytest.mark.parametrize("k", range(len(BRACKETS)))
def test_brentq_matches_scipy(k):
    f, a, b = BRACKETS[k]
    tol = 4.0 * np.finfo(float).eps
    for lo, hi, kw in ((a, b, {}), (a, b, dict(xtol=tol, rtol=tol)), (b, a, dict(xtol=1e-6))):
        assert _outcome(dyn.brentq, f, lo, hi, **kw) == _outcome(scipy_brentq, f, lo, hi, **kw)


def test_brentq_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        dyn.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        dyn.brentq(lambda x: math.nan, -1.0, 1.0)
