"""Hamiltonians, canonical equations of motion, and adaptive integration.

Chart-form Hamiltonians (kinetic sign flips between chart families):

    outer:  H = (p_r^2 + L^2/sinh^2 r)/(2 R^2) + (omega^2 R^2/2) tanh^2 r
    inner:  H = -(p_chi^2 + L^2/sin^2 chi)/(2 R^2) - (omega^2 R^2/2) tan^2 chi

with the chart L^2 of invariants.l_squared.  Free mode drops the potential.

Each run is integrated in one representation, chosen from the initial state.
An outer-chart state with L^2 > 2 R^2 H S_BAND runs on the outer chart
equations: at its pericenter p_r = 0 and the potential is >= 0, so
H >= L^2/(2 R^2 s_min) and the shape s = sinh^2 r never falls below S_BAND,
well clear of the degenerate cone |z0| = R (s = 0).  Every other state
(inner charts, where L^2 <= 0, and orbits that can come near the cone) runs
on the constrained ambient system

    zdot = G^{-1} p,   pdot = -grad V + lambda G z,
    lambda = G^{-1}(p, p) / R^2

throughout (z . grad V = 0, so the multiplier carries no potential term).

A run is one call of `solve_stretch`: a single DOP853 solver object stepped
over the span, with solve_ivp's event rules and one OdeSolution built from
the per-step interpolants.  In ambient form solve_stretch re-projects the
state onto the shell z.z = R^2 in place about once per dynamical time
(dt_proj) and keeps stepping: the step size and controller state carry
over, so there is no restart (the projection method of Hairer-Lubich-Wanner,
Geometric Numerical Integration, IV.4).  Samples are taken at the solver's accepted
steps, before any projection; events (chart crossings, radial turning
points, period closures) are root-polished by brentq on the step's dense
output to ~1e-12.

The time-T map of a bounded orbit is the central inversion
(z0, zvec, p0, pvec) -> (z0, -zvec, p0, -pvec); a PeriodClosure event is
logged whenever the state returns within 1e-6 normalized phase distance of
the initial point or its inversion image, so closures appear at every
multiple of the radial period (full identity at even multiples).
"""

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (
    ChartId,
    ChartPoint,
    EmbeddingPhase,
    EmbeddingPoint,
    ModelParams,
    PhaseState,
    chart_select,
    momentum_lift,
    momentum_project,
)
from .invariants import (
    InvariantSet,
    evaluate_invariants,
    l_squared,
)


def __getattr__(name):
    # scipy.integrate is most of the package's import time, so it is loaded on
    # first use only.  integrate() steps its own solver (solve_stretch) and no
    # longer calls solve_ivp; the name stays reachable here for tools that
    # look it up on this module
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


CLOSURE_TOL = 1e-6
CONSTRAINT_ABORT = 1e-8
# chart runs need L^2 > 2 R^2 H S_BAND, which keeps sinh^2 r above S_BAND
S_BAND = 2e-5


class Mode(Enum):
    FREE = "free"
    OSCILLATOR = "oscillator"


class EventKind(Enum):
    CHART_CROSSING = "ChartCrossing"
    RADIAL_TURNING_POINT = "RadialTurningPoint"
    PERIOD_CLOSURE = "PeriodClosure"


@dataclass(frozen=True)
class Event:
    t: float
    kind: EventKind
    detail: str = ""


class Sample(NamedTuple):
    t: float
    state: PhaseState
    ambient: EmbeddingPhase
    invariants: InvariantSet


@dataclass(frozen=True)
class IntegrationConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    t_span: tuple = (0.0, 10.0)

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (self.max_step > 0.0):
            raise ValueError("max_step must be positive")
        t0, t1 = self.t_span
        if not (t1 > t0):
            raise ValueError("t_span must have t1 > t0")


class IntegrationError(RuntimeError):
    pass


class PhaseDerivative(NamedTuple):
    dq1: float
    dq2: float
    dphi: float
    dp1: float
    dp2: float
    dpphi: float


# ---------------------------------------------------------------------------
# Hamiltonian and equations of motion (chart form)
# ---------------------------------------------------------------------------


def potential(point: ChartPoint, params: ModelParams) -> float:
    """Oscillator potential in chart form; equals the ambient expression."""
    w = 0.5 * params.omega**2 * params.radius**2
    if point.chart.is_outer:
        return w * math.tanh(point.q1) ** 2
    return -w * math.tan(point.q1) ** 2


def hamiltonian(state: PhaseState, params: ModelParams, mode: Mode = Mode.OSCILLATOR) -> float:
    """Energy of a chart phase state.

    The centrifugal term is taken as zero at the coordinate pole when all
    angular momenta vanish (PhaseState construction forbids the rest).
    """
    pt = state.point
    R2 = params.radius**2
    p1 = state.p1
    if _real_zero(state.p2) and _real_zero(state.pphi):
        cent = 0.0
    else:
        lsq = l_squared(state)
        if pt.chart.is_outer:
            sh = math.sinh(pt.q1)
            cent = lsq / (sh * sh)
        else:
            sn = math.sin(pt.q1)
            cent = lsq / (sn * sn)
    kin = (p1 * p1 + cent) / (2.0 * R2)
    if not pt.chart.is_outer:
        kin = -kin
    if mode == Mode.FREE:
        return kin
    return kin + potential(pt, params)


def _real_zero(x) -> bool:
    return x == 0.0


def equations_of_motion(
    state: PhaseState, params: ModelParams, mode: Mode = Mode.OSCILLATOR
) -> PhaseDerivative:
    """Canonical qdot = dH/dp, pdot = -dH/dq; p_phi is always conserved."""
    y = np.array(
        [state.point.q1, state.point.q2, state.point.phi, state.p1, state.p2, state.pphi]
    )
    rhs = _chart_rhs(state.point.chart.is_outer, params, mode)
    return PhaseDerivative(*rhs(0.0, y))


def _chart_rhs(is_outer: bool, params: ModelParams, mode: Mode):
    R2 = params.radius**2
    w2 = params.omega**2 * R2 if mode == Mode.OSCILLATOR else 0.0

    if is_outer:

        def rhs(t, y):
            q1, q2, p1, p2, pphi = y[0], y[1], y[3], y[4], y[5]
            sh, ch = math.sinh(q1), math.cosh(q1)
            if p2 == 0.0 and pphi == 0.0:
                dp1 = -w2 * sh / ch**3
                return (p1 / R2, 0.0, 0.0, dp1, 0.0, 0.0)
            sht, cht = math.sinh(q2), math.cosh(q2)
            sh2 = sh * sh
            cht2 = cht * cht
            lsq = pphi * pphi / cht2 - p2 * p2
            return (
                p1 / R2,
                -p2 / (R2 * sh2),
                pphi / (R2 * sh2 * cht2),
                lsq * ch / (R2 * sh2 * sh) - w2 * sh / ch**3,
                pphi * pphi * sht / (R2 * sh2 * cht2 * cht),
                0.0,
            )

        return rhs

    def rhs(t, y):
        q1, q2, p1, p2, pphi = y[0], y[1], y[3], y[4], y[5]
        sn, cn = math.sin(q1), math.cos(q1)
        if p2 == 0.0 and pphi == 0.0:
            return (-p1 / R2, 0.0, 0.0, w2 * sn / cn**3, 0.0, 0.0)
        sn2 = sn * sn
        if pphi == 0.0:
            a = p2 * p2
            return (
                -p1 / R2,
                p2 / (R2 * sn2),
                0.0,
                a * cn / (R2 * sn2 * sn) + w2 * sn / cn**3,
                0.0,
                0.0,
            )
        shm, chm = math.sinh(q2), math.cosh(q2)
        shm2 = shm * shm
        a = p2 * p2 + pphi * pphi / shm2
        return (
            -p1 / R2,
            p2 / (R2 * sn2),
            pphi / (R2 * sn2 * shm2),
            a * cn / (R2 * sn2 * sn) + w2 * sn / cn**3,
            pphi * pphi * chm / (R2 * sn2 * shm2 * shm),
            0.0,
        )

    return rhs


def _radial_force_scale(is_outer: bool, y, params: ModelParams, mode: Mode) -> float:
    """Magnitude scale of the two radial force terms (for near-cancellation tests)."""
    R2 = params.radius**2
    w2 = params.omega**2 * R2 if mode == Mode.OSCILLATOR else 0.0
    if is_outer:
        sh, ch = math.sinh(y[0]), math.cosh(y[0])
        lsq = y[5] ** 2 / math.cosh(y[1]) ** 2 - y[4] ** 2
        cent = abs(lsq) * ch / (R2 * max(abs(sh) ** 3, 1e-300))
        return cent + w2 * abs(sh) / ch**3
    sn, cn = math.sin(y[0]), math.cos(y[0])
    a = y[4] ** 2 + (y[5] ** 2 / math.sinh(y[1]) ** 2 if y[5] != 0.0 else 0.0)
    cent = a * abs(cn) / (R2 * max(abs(sn) ** 3, 1e-300))
    return cent + w2 * abs(sn) / abs(cn) ** 3


def _tracks_turns(is_outer: bool, y, params: ModelParams, mode: Mode) -> bool:
    """Whether a stretch starting at chart state y looks for radial turns.

    A circular orbit keeps p1 = 0 and pdot1 = 0 exactly, which would make a
    turning-event function (p1 on a chart, z0 p0 in ambient form) vanish up
    to rounding all along and report spurious roots; it is skipped then.
    """
    pmag = max(1.0, abs(y[4]), abs(y[5]))
    if abs(y[3]) >= 1e-12 * pmag:
        return True
    d1 = _chart_rhs(is_outer, params, mode)(0.0, y)[3]
    fmag = _radial_force_scale(is_outer, y, params, mode)
    return abs(d1) >= 1e-9 * max(fmag, 1e-30)


def _ambient_rhs(params: ModelParams, mode: Mode):
    R2 = params.radius**2
    w = 0.5 * params.omega**2 * R2 if mode == Mode.OSCILLATOR else 0.0

    def rhs(t, y):
        z0, z1, z2, z3, p0, p1, p2, p3 = y
        lam = (-p0 * p0 - p1 * p1 + p2 * p2 + p3 * p3) / R2
        if w != 0.0:
            z0sq = z0 * z0
            v = w * (z2 * z2 + z3 * z3 - z1 * z1) / z0sq
            g0 = -2.0 * v / z0
            g1 = -2.0 * w * z1 / z0sq
            g2 = 2.0 * w * z2 / z0sq
            g3 = 2.0 * w * z3 / z0sq
        else:
            g0 = g1 = g2 = g3 = 0.0
        return (
            -p0,
            -p1,
            p2,
            p3,
            -g0 - lam * z0,
            -g1 - lam * z1,
            -g2 + lam * z2,
            -g3 + lam * z3,
        )

    return rhs


# ---------------------------------------------------------------------------
# ambient helpers
# ---------------------------------------------------------------------------


def _project_constraint(y8: np.ndarray, radius: float) -> np.ndarray:
    """Rescale z onto the shell and remove the normal momentum component."""
    z = y8[:4].copy()
    p = y8[4:].copy()
    quad = z[0] * z[0] + z[1] * z[1] - z[2] * z[2] - z[3] * z[3]
    z *= radius / math.sqrt(quad)
    gz = np.array([-z[0], -z[1], z[2], z[3]])
    p += (float(z @ p) / radius**2) * gz
    return np.concatenate([z, p])


def _phase_from_y8(y8: np.ndarray) -> EmbeddingPhase:
    return EmbeddingPhase(
        EmbeddingPoint(y8[0], y8[1], y8[2], y8[3]), y8[4], y8[5], y8[6], y8[7]
    )


def _y8_from_phase(ph: EmbeddingPhase) -> np.ndarray:
    return np.concatenate([ph.z.array, ph.momentum_array])


def central_inversion(y8: np.ndarray) -> np.ndarray:
    """The time-T map of bounded orbits: (z0, zvec, p0, pvec) -> (z0, -zvec, p0, -pvec)."""
    out = -np.asarray(y8, dtype=float)
    out[0] = -out[0]
    out[4] = -out[4]
    return out


def phase_distance(a: np.ndarray, b: np.ndarray, radius: float) -> float:
    """Normalized sup distance between two ambient phase points."""
    dz = np.max(np.abs(a[:4] - b[:4])) / radius
    pscale = max(1.0, float(np.max(np.abs(b[4:]))))
    dp = np.max(np.abs(a[4:] - b[4:])) / pscale
    return max(float(dz), float(dp))


def _shape_s(y8: np.ndarray, radius: float) -> float:
    """Signed radial shape s = (z0^2 - R^2)/R^2 (= sinh^2 r or -sin^2 chi)."""
    return (y8[0] * y8[0] - radius**2) / radius**2


# ---------------------------------------------------------------------------
# the stepping driver
# ---------------------------------------------------------------------------


class Stretch(NamedTuple):
    """One solver run: the fields of a solve_ivp result that integrate reads."""

    t: np.ndarray  # stretch start, then each accepted step end
    y: np.ndarray  # (n, t.size) states at those times, before any projection
    sol: object  # scipy OdeSolution over the stretch
    t_events: list  # root times, one array per event function
    nfev: int
    status: int  # 0 reached the end, -1 solver failure
    message: str
    t_proj: tuple  # times at which the state was projected


def solve_stretch(fun, t_span, y0, events=(), *, rtol, atol, max_step=math.inf,
                  project=None, dt_proj=math.inf) -> Stretch:
    """Step one DOP853 solver over t_span, detecting events as solve_ivp does.

    An event function counts on a step when g_old <= 0 <= g_new or g_old >= 0
    >= g_new, filtered by its `direction` attribute; its root is found by
    brentq on the step's dense output with xtol = rtol = 4 eps.

    With `project`, the state is replaced by project(y) at the first step end
    at least dt_proj after the previous projection (or the start).  The
    first-same-as-last stage is recomputed from the projected state and the
    step size is kept, so the solver carries on without a restart.  Recorded
    samples and interpolants are those of the unprojected steps.
    """
    from scipy.integrate import DOP853, OdeSolution
    from scipy.optimize import brentq

    t0, t_bound = float(t_span[0]), float(t_span[1])
    solver = DOP853(fun, t0, y0, t_bound, rtol=rtol, atol=atol, max_step=max_step)
    if not (hasattr(solver, "y") and hasattr(solver, "f")):
        raise RuntimeError("DOP853 no longer exposes the state y and stage f")
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
        dense = solver.dense_output()
        interpolants.append(dense)
        g_new = [ev(t, y) for ev in events]
        for i, (a, b, d) in enumerate(zip(g, g_new, direction)):
            if (d >= 0 and a <= 0 <= b) or (d <= 0 and a >= 0 >= b):
                t_events[i].append(
                    brentq(lambda s, ev=events[i]: ev(s, dense(s)), t_old, t,
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
    return Stretch(
        np.array(ts),
        np.array(ys).T,
        OdeSolution(ts, interpolants),
        [np.asarray(te) for te in t_events],
        solver.nfev,
        status,
        message or "",
        tuple(t_proj),
    )


# ---------------------------------------------------------------------------
# trajectory container
# ---------------------------------------------------------------------------


CSV_COLUMNS = (
    "t,chart,q1,q2,phi,p1,p2,pphi,z0,z1,z2,z3,"
    "H,L1,L2,L3,Lsq,C1,C2,D11,D12,D13,D22,D23,D33"
)

INVARIANTS_COLUMNS = "t,H,N1,N2,N3,L1,L2,L3,Lsq,C1,C2,D11,D12,D13,D22,D23,D33"


# one %-format per CSV row; "%.17g" prints exactly what f"{x:.17g}" does
_CSV_ROW = "%.17g,%s," + ",".join(["%.17g"] * (CSV_COLUMNS.count(",") - 1))
_INVARIANTS_ROW = ",".join(["%.17g"] * (INVARIANTS_COLUMNS.count(",") + 1))


def atomic_write_text(path: str, content: str):
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Trajectory:
    """Immutable integration result: samples at accepted steps plus events."""

    samples: tuple
    events: tuple
    params: ModelParams
    mode: Mode
    sol: object = field(repr=False, compare=False, default=None)  # OdeSolution of the run
    chart: Optional[ChartId] = None  # chart the run was integrated on; None in ambient form

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def ambient_at(self, t: float) -> EmbeddingPhase:
        """Evaluate the dense solution at any time inside the span."""
        y8 = self._y8_at(t)
        return _phase_from_y8(_project_constraint(y8, self.params.radius))

    def _y8_at(self, t: float) -> np.ndarray:
        if not (self.sol.t_min - 1e-12 <= t <= self.sol.t_max + 1e-12):
            raise ValueError(f"t = {t} outside the integrated span")
        y = np.asarray(self.sol(t), dtype=float)
        if self.chart is None:
            return y
        state = PhaseState(ChartPoint(self.chart, y[0], y[1], y[2]), y[3], y[4], y[5])
        return _y8_from_phase(momentum_lift(state, self.params))

    def shape_series(self, ts) -> np.ndarray:
        """s(t) = sinh^2 r (outer) / -sin^2 chi (inner) on a time grid."""
        R = self.params.radius
        return np.array(
            [_shape_s(_project_constraint(self._y8_at(t), R), R) for t in ts]
        )

    # ---- export ----

    def to_csv(self, path: str):
        rows = [CSV_COLUMNS]
        for s in self.samples:
            g = s.invariants.generators
            d = s.invariants.df.d
            pt = s.state.point
            z = s.ambient.z
            rows.append(_CSV_ROW % (
                s.t, pt.chart.value, pt.q1, pt.q2, pt.phi,
                s.state.p1, s.state.p2, s.state.pphi, z.z0, z.z1, z.z2, z.z3,
                s.invariants.hamiltonian, g.l1, g.l2, g.l3, s.invariants.l_squared,
                s.invariants.casimir1, s.invariants.casimir2,
                d[0, 0], d[0, 1], d[0, 2], d[1, 1], d[1, 2], d[2, 2],
            ))
        atomic_write_text(path, "\n".join(rows) + "\n")

    def to_invariants_csv(self, path: str):
        rows = [INVARIANTS_COLUMNS]
        for s in self.samples:
            g = s.invariants.generators
            d = s.invariants.df.d
            rows.append(_INVARIANTS_ROW % (
                s.t, s.invariants.hamiltonian, g.n1, g.n2, g.n3, g.l1, g.l2, g.l3,
                s.invariants.l_squared, s.invariants.casimir1, s.invariants.casimir2,
                d[0, 0], d[0, 1], d[0, 2], d[1, 1], d[1, 2], d[2, 2],
            ))
        atomic_write_text(path, "\n".join(rows) + "\n")

    def events_as_dicts(self):
        return [{"t": e.t, "kind": e.kind.value, "detail": e.detail} for e in self.events]

    def write_events_json(self, path: str):
        atomic_write_text(path, json.dumps(self.events_as_dicts(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# the integrator
# ---------------------------------------------------------------------------


def integrate(
    initial: PhaseState,
    params: ModelParams,
    cfg: IntegrationConfig,
    mode: Mode = Mode.OSCILLATOR,
) -> Trajectory:
    """Integrate the canonical equations over cfg.t_span in one representation.

    An outer-chart state with L^2 > 2 R^2 H S_BAND runs on the outer chart
    equations; its orbit keeps sinh^2 r above S_BAND.  Every other state runs
    on the constrained ambient equations, which carry an orbit through the
    degenerate cone |z0| = R.  Either way the span is one solve_stretch run.
    """
    R = params.radius
    R2 = R * R
    t0, t1 = cfg.t_span

    ph0 = momentum_lift(initial, params)
    y80 = _y8_from_phase(ph0)
    if not np.all(np.isfinite(y80)):
        raise IntegrationError("non-finite initial data")
    h0val = hamiltonian(initial, params, mode)
    chart = initial.point.chart
    start = np.array(
        [initial.point.q1, initial.point.q2, initial.point.phi,
         initial.p1, initial.p2, initial.pphi],
        dtype=float,
    )
    track_turns = _tracks_turns(chart.is_outer, start, params, mode)
    opts = dict(rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step)
    events = []

    if chart.is_outer and l_squared(initial) > 2.0 * R2 * h0val * S_BAND:
        rhs = _chart_rhs(True, params, mode)

        def ev_turn(tt, yy):
            return yy[3]

        sol = solve_stretch(rhs, (t0, t1), start, [ev_turn] if track_turns else [], **opts)
        if sol.status < 0:
            raise IntegrationError(f"chart integration failed: {sol.message}")
        for t_ev in sol.t_events[0] if track_turns else ():
            if t_ev <= t0 + 1e-12:
                continue
            # shape minimum iff d(shape)/dt turns up: sign carried by pdot1
            s_min = rhs(float(t_ev), sol.sol(float(t_ev)))[3] > 0.0
            events.append(
                Event(
                    float(t_ev),
                    EventKind.RADIAL_TURNING_POINT,
                    "pericenter" if s_min else "apocenter",
                )
            )
    else:
        chart = None
        rhs = _ambient_rhs(params, mode)
        # re-project onto the shell about once per dynamical time; otherwise
        # the quadratic-form drift grows secularly with the span
        rate = params.omega + math.sqrt(2.0 * abs(h0val)) / R
        dt_proj = min(t1 - t0, 1.0 / max(rate, 1e-6))

        def ev_cross(tt, yy):
            return yy[0] * yy[0] - R2

        def ev_turn_amb(tt, yy):
            return yy[0] * yy[4]

        sol = solve_stretch(
            rhs, (t0, t1), y80, [ev_cross, ev_turn_amb] if track_turns else [ev_cross],
            project=lambda y8: _project_constraint(y8, R), dt_proj=dt_proj, **opts
        )
        if sol.status < 0:
            raise IntegrationError(f"ambient integration failed: {sol.message}")
        for t_ev in sol.t_events[0]:
            yev = sol.sol(float(t_ev))
            side = "outer->inner" if yev[0] * yev[4] > 0.0 else "inner->outer"
            # zdot0 = -p0: z0^2 decreasing when z0*p0 > 0
            events.append(Event(float(t_ev), EventKind.CHART_CROSSING, side))
        for t_ev in sol.t_events[1] if track_turns else ():
            if t_ev <= t0 + 1e-12:
                continue
            yev = sol.sol(float(t_ev))
            if abs(yev[0]) <= 1e-9 * R:
                continue  # z0 = 0 root of z0*p0, not a radial turning
            # sdotdot = -2 z0 pdot0 / R^2 at p0 = 0
            s_min = yev[0] * rhs(float(t_ev), yev)[4] < 0.0
            events.append(
                Event(
                    float(t_ev),
                    EventKind.RADIAL_TURNING_POINT,
                    "pericenter" if s_min else "apocenter",
                )
            )

    # ---- assemble samples -------------------------------------------------
    samples = []
    for t_i, yvec in zip(sol.t, sol.y.T):
        if chart is not None:
            state = PhaseState(
                ChartPoint(chart, yvec[0], yvec[1], yvec[2]), yvec[3], yvec[4], yvec[5]
            )
            ph = momentum_lift(state, params)
            y8 = _y8_from_phase(ph)
        else:
            y8 = yvec
        quad = y8[0] ** 2 + y8[1] ** 2 - y8[2] ** 2 - y8[3] ** 2
        drift = abs(quad - R2)
        if drift > CONSTRAINT_ABORT * R2:
            raise IntegrationError(
                f"constraint drift {drift:.3e} beyond {CONSTRAINT_ABORT:.0e}*R^2 at t={t_i}"
            )
        if chart is None:
            y8 = _project_constraint(y8, R)
            ph = _phase_from_y8(y8)
            state = momentum_project(ph, chart_select(ph.z, params), params)
        inv = evaluate_invariants(ph, params, mode.value)
        samples.append(Sample(float(t_i), state, ph, inv))

    # ---- period-closure pass ---------------------------------------------
    traj = Trajectory(tuple(samples), tuple(events), params, mode, sol.sol, chart)
    t_est = _period_from_events(events)
    if t_est is not None:
        x0 = _project_constraint(y80, R)
        xi = central_inversion(x0)
        k = 1
        while t0 + k * t_est <= t1 + 1e-9:
            tk = min(t0 + k * t_est, t1)
            yk = _project_constraint(traj._y8_at(tk), R)
            d = min(phase_distance(yk, x0, R), phase_distance(yk, xi, R))
            if d < CLOSURE_TOL:
                events.append(Event(float(tk), EventKind.PERIOD_CLOSURE, f"k={k}"))
            k += 1
        traj = Trajectory(
            tuple(samples),
            tuple(sorted(events, key=lambda e: e.t)),
            params,
            mode,
            sol.sol,
            chart,
        )
    return traj


def _period_from_events(events) -> Optional[float]:
    for which in ("pericenter", "apocenter"):
        ts = [e.t for e in events if e.kind == EventKind.RADIAL_TURNING_POINT and e.detail == which]
        if len(ts) >= 2:
            return (ts[-1] - ts[0]) / (len(ts) - 1)
    return None


def measure_period(traj: Trajectory) -> Optional[float]:
    """Radial period from same-branch turning events.

    Circular orbits have no p_r sign changes; for them the period is the
    time to advance the azimuth by pi (the closure angle of bounded
    orbits).  A vanishing radial momentum throughout the window forces
    uniform rotation, so the azimuthal rate of the first sample is exact.
    Returns None for unbounded motion or windows shorter than the period.
    """
    t = _period_from_events(traj.events)
    if t is not None:
        return t
    # circular fallback: p1 stays at zero throughout
    p1max = max(abs(s.state.p1) for s in traj.samples)
    pscale = max(1.0, max(abs(s.state.pphi) for s in traj.samples))
    if p1max < 1e-8 * pscale:
        rate = abs(equations_of_motion(traj.samples[0].state, traj.params, traj.mode).dphi)
        window = traj.times[-1] - traj.times[0]
        if rate > 0.0 and window * rate >= math.pi:
            return math.pi / rate
    return None
