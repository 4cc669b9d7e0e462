"""Hamiltonians, canonical equations of motion, and adaptive integration.

Chart-form Hamiltonians (kinetic sign flips between chart families):

    outer:  H = (p_r^2 + L^2/sinh^2 r)/(2 R^2) + (omega^2 R^2/2) tanh^2 r
    inner:  H = -(p_chi^2 + L^2/sin^2 chi)/(2 R^2) - (omega^2 R^2/2) tan^2 chi

with the chart L^2 of invariants.l_squared.  Free mode drops the potential.

Integration runs on the chart equations wherever they are regular and hands
the state through the ambient representation inside a band |{|z0| - R}| <
boundary_band around the degenerate cone, where the constrained ambient
system

    zdot = G^{-1} p,   pdot = -grad V + lambda G z,
    lambda = G^{-1}(p, p) / R^2

is integrated instead (z . grad V = 0, so the multiplier carries no
potential term).  Orbits that can reach the cone at all (L^2 <= 0, or a
start already inside the band) are integrated in ambient form throughout.
Samples are taken at the solver's accepted steps; events (chart crossings,
radial turning points, period closures) are root-polished by the solver's
own bisection to ~1e-12.

The time-T map of a bounded orbit is the central inversion
(z0, zvec, p0, pvec) -> (z0, -zvec, p0, -pvec); a PeriodClosure event is
logged whenever the state returns within 1e-6 normalized phase distance of
the initial point or its inversion image, so closures appear at every
multiple of the radial period (full identity at even multiples).
"""

import json
import math
import os
import sys
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
    # solve_ivp loads scipy.integrate (most of the package's import time), so
    # it is imported on first use; `integrate` reaches it through the module
    # so that a wrapper set with setattr(dynamics, "solve_ivp", ...) is called
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


CLOSURE_TOL = 1e-6
CONSTRAINT_ABORT = 1e-8
MAX_STRETCHES = 10_000


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
    boundary_band: Optional[float] = None  # default 1e-6 * R at use

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (self.max_step > 0.0):
            raise ValueError("max_step must be positive")
        t0, t1 = self.t_span
        if not (t1 > t0):
            raise ValueError("t_span must have t1 > t0")
        if self.boundary_band is not None and not (self.boundary_band > 0.0):
            raise ValueError("boundary_band must be positive")


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
        cent = abs(lsq) * ch / (R2 * max(abs(sh), 1e-300) ** 3)
        return cent + w2 * abs(sh) / ch**3
    sn, cn = math.sin(y[0]), math.cos(y[0])
    a = y[4] ** 2 + (y[5] ** 2 / math.sinh(y[1]) ** 2 if y[5] != 0.0 else 0.0)
    cent = a * abs(cn) / (R2 * max(abs(sn), 1e-300) ** 3)
    return cent + w2 * abs(sn) / abs(cn) ** 3


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
# trajectory container
# ---------------------------------------------------------------------------


class _Piece(NamedTuple):
    kind: str  # "chart" | "ambient"
    chart: Optional[ChartId]
    sol: object  # scipy OdeSolution
    t0: float
    t1: float


CSV_COLUMNS = (
    "t,chart,q1,q2,phi,p1,p2,pphi,z0,z1,z2,z3,"
    "H,L1,L2,L3,Lsq,C1,C2,D11,D12,D13,D22,D23,D33"
)

INVARIANTS_COLUMNS = "t,H,N1,N2,N3,L1,L2,L3,Lsq,C1,C2,D11,D12,D13,D22,D23,D33"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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
    pieces: tuple = field(repr=False, compare=False, default=())

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def ambient_at(self, t: float) -> EmbeddingPhase:
        """Evaluate the dense solution at any time inside the span."""
        y8 = self._y8_at(t)
        return _phase_from_y8(_project_constraint(y8, self.params.radius))

    def _y8_at(self, t: float) -> np.ndarray:
        for piece in self.pieces:
            if piece.t0 - 1e-12 <= t <= piece.t1 + 1e-12:
                y = np.asarray(piece.sol(t), dtype=float)
                if piece.kind == "ambient":
                    return y
                state = PhaseState(
                    ChartPoint(piece.chart, y[0], y[1], y[2]), y[3], y[4], y[5]
                )
                return _y8_from_phase(momentum_lift(state, self.params))
        raise ValueError(f"t = {t} outside the integrated span")

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
            vals = [
                _fmt(s.t),
                pt.chart.value,
                _fmt(pt.q1),
                _fmt(pt.q2),
                _fmt(pt.phi),
                _fmt(s.state.p1),
                _fmt(s.state.p2),
                _fmt(s.state.pphi),
                _fmt(z.z0),
                _fmt(z.z1),
                _fmt(z.z2),
                _fmt(z.z3),
                _fmt(s.invariants.hamiltonian),
                _fmt(g.l1),
                _fmt(g.l2),
                _fmt(g.l3),
                _fmt(s.invariants.l_squared),
                _fmt(s.invariants.casimir1),
                _fmt(s.invariants.casimir2),
                _fmt(d[0, 0]),
                _fmt(d[0, 1]),
                _fmt(d[0, 2]),
                _fmt(d[1, 1]),
                _fmt(d[1, 2]),
                _fmt(d[2, 2]),
            ]
            rows.append(",".join(vals))
        atomic_write_text(path, "\n".join(rows) + "\n")

    def to_invariants_csv(self, path: str):
        rows = [INVARIANTS_COLUMNS]
        for s in self.samples:
            g = s.invariants.generators
            d = s.invariants.df.d
            vals = [
                _fmt(s.t),
                _fmt(s.invariants.hamiltonian),
                _fmt(g.n1),
                _fmt(g.n2),
                _fmt(g.n3),
                _fmt(g.l1),
                _fmt(g.l2),
                _fmt(g.l3),
                _fmt(s.invariants.l_squared),
                _fmt(s.invariants.casimir1),
                _fmt(s.invariants.casimir2),
                _fmt(d[0, 0]),
                _fmt(d[0, 1]),
                _fmt(d[0, 2]),
                _fmt(d[1, 1]),
                _fmt(d[1, 2]),
                _fmt(d[2, 2]),
            ]
            rows.append(",".join(vals))
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
    method: str = "auto",
) -> Trajectory:
    """Integrate the canonical equations over cfg.t_span.

    method: "chart" (chart equations, ambient hand-over inside the boundary
    band), "ambient" (constrained ambient equations throughout, the
    cross-check mode), or "auto" (ambient whenever the orbit can reach the
    degenerate cone |z0| = R, i.e. L^2 <= 0 or a start inside the band).
    """
    if method not in ("auto", "chart", "ambient"):
        raise ValueError(f"unknown method {method!r}")
    solve_ivp = sys.modules[__name__].solve_ivp
    R = params.radius
    R2 = R * R
    band = cfg.boundary_band if cfg.boundary_band is not None else 1e-6 * R
    t0, t1 = cfg.t_span

    ph0 = momentum_lift(initial, params)
    y80 = _y8_from_phase(ph0)
    if not np.all(np.isfinite(y80)):
        raise IntegrationError("non-finite initial data")
    lsq0 = l_squared(initial)
    near0 = abs(abs(ph0.z.z0) - R) <= 10.0 * band
    if method == "auto":
        method = "ambient" if (lsq0 <= 1e-12 * max(1.0, abs(lsq0)) or near0) else "chart"
        if lsq0 <= 0.0:
            method = "ambient"

    rhs_amb = _ambient_rhs(params, mode)
    opts = dict(
        method="DOP853",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        dense_output=True,
    )
    # ambient stretches re-project onto the shell about once per dynamical
    # time; otherwise the quadratic-form drift grows secularly with the span
    h0val = hamiltonian(initial, params, mode)
    rate = params.omega + math.sqrt(2.0 * abs(h0val)) / R
    dt_proj = min(t1 - t0, 1.0 / max(rate, 1e-6))

    raw_samples = []  # (t, kind, chart, yvec)
    events = []
    pieces = []
    max_drift = 0.0

    def record_chart_stretch(sol, chart, skip_first):
        for i in range(1 if skip_first else 0, sol.t.size):
            raw_samples.append((sol.t[i], "chart", chart, sol.y[:, i].copy()))

    def record_ambient_stretch(sol, skip_first):
        for i in range(1 if skip_first else 0, sol.t.size):
            raw_samples.append((sol.t[i], "ambient", None, sol.y[:, i].copy()))

    # representation state
    if method == "ambient" or near0:
        repr_kind = "ambient"
        y = y80.copy()
    else:
        repr_kind = "chart"
        chart = initial.point.chart
        y = np.array(
            [
                initial.point.q1,
                initial.point.q2,
                initial.point.phi,
                initial.p1,
                initial.p2,
                initial.pphi,
            ],
            dtype=float,
        )
    hybrid = method == "chart"

    t = t0
    raw_samples.append(
        (t0, repr_kind, chart if repr_kind == "chart" else None, y.copy())
    )
    n_stretch = 0
    while t < t1 - 1e-13 * max(1.0, abs(t1)):
        n_stretch += 1
        if n_stretch > MAX_STRETCHES:
            raise IntegrationError("too many chart transitions (band thrashing)")
        if repr_kind == "chart":
            rhs = _chart_rhs(chart.is_outer, params, mode)
            if chart.is_outer:

                def ev_band(tt, yy):
                    return R * (math.cosh(yy[0]) - 1.0) - band

            else:

                def ev_band(tt, yy):
                    return R * (1.0 - math.cos(yy[0])) - band

            ev_band.terminal = True
            ev_band.direction = -1.0

            def ev_turn(tt, yy):
                return yy[3]

            ev_turn.terminal = False
            # a circular orbit keeps p1 = 0 and pdot1 = 0 exactly, which would
            # make the turning-event function vanish identically; skip it then
            d0 = rhs(t, y)
            pmag = max(1.0, abs(y[4]), abs(y[5]))
            fmag = _radial_force_scale(chart.is_outer, y, params, mode)
            track_turns = not (
                abs(y[3]) < 1e-12 * pmag and abs(d0[3]) < 1e-9 * max(fmag, 1e-30)
            )
            evs = [ev_band, ev_turn] if track_turns else [ev_band]
            sol = solve_ivp(rhs, (t, t1), y, events=evs, **opts)
            if not sol.success and sol.status != 1:
                raise IntegrationError(f"chart integration failed: {sol.message}")
            record_chart_stretch(sol, chart, skip_first=True)
            pieces.append(_Piece("chart", chart, sol.sol, t, sol.t[-1]))
            turn_times = sol.t_events[1] if track_turns else ()
            for t_ev in turn_times:
                if t_ev <= t + 1e-12:
                    continue
                yev = sol.sol(float(t_ev))
                d_ev = rhs(float(t_ev), yev)
                # shape minimum iff d(shape)/dt turns up: sign carried by pdot1
                # (times sin q1 on the inner chart, where shape = -sin^2 q1)
                if chart.is_outer:
                    s_min = d_ev[3] > 0.0
                else:
                    s_min = math.sin(yev[0]) * d_ev[3] > 0.0
                events.append(
                    Event(
                        float(t_ev),
                        EventKind.RADIAL_TURNING_POINT,
                        "pericenter" if s_min else "apocenter",
                    )
                )
            if sol.status == 1 and sol.t_events[0].size:
                # hand over through the ambient representation
                t = float(sol.t[-1])
                y6 = sol.y[:, -1]
                st = PhaseState(ChartPoint(chart, y6[0], y6[1], y6[2]), y6[3], y6[4], y6[5])
                y = _y8_from_phase(momentum_lift(st, params))
                repr_kind = "ambient"
            else:
                t = float(sol.t[-1])
        else:  # ambient stretch
            def ev_cross(tt, yy):
                return yy[0] * yy[0] - R2

            ev_cross.terminal = False

            def ev_turn_amb(tt, yy):
                return yy[0] * yy[4]

            ev_turn_amb.terminal = False

            evs = [ev_cross, ev_turn_amb]
            if hybrid:

                def ev_exit(tt, yy):
                    return (abs(yy[0]) - R) ** 2 - band * band

                ev_exit.terminal = True
                ev_exit.direction = 1.0
                evs.append(ev_exit)
            t_stop = min(t1, t + dt_proj)
            sol = solve_ivp(rhs_amb, (t, t_stop), y, events=evs, **opts)
            if not sol.success and sol.status != 1:
                raise IntegrationError(f"ambient integration failed: {sol.message}")
            record_ambient_stretch(sol, skip_first=True)
            pieces.append(_Piece("ambient", None, sol.sol, t, sol.t[-1]))
            for t_ev in sol.t_events[0]:
                yev = sol.sol(float(t_ev))
                side = "outer->inner" if yev[0] * yev[4] > 0.0 else "inner->outer"
                # zdot0 = -p0: z0^2 decreasing when z0*p0 > 0
                events.append(Event(float(t_ev), EventKind.CHART_CROSSING, side))
            for t_ev in sol.t_events[1]:
                if t_ev <= t + 1e-12:
                    continue
                yev = sol.sol(float(t_ev))
                if abs(yev[0]) <= 1e-9 * R:
                    continue  # z0 = 0 root of z0*p0, not a radial turning
                d_ev = rhs_amb(float(t_ev), yev)
                # sdotdot = -2 z0 pdot0 / R^2 at p0 = 0
                s_min = yev[0] * d_ev[4] < 0.0
                events.append(
                    Event(
                        float(t_ev),
                        EventKind.RADIAL_TURNING_POINT,
                        "pericenter" if s_min else "apocenter",
                    )
                )
            if hybrid and sol.status == 1 and sol.t_events[2].size:
                t = float(sol.t[-1])
                y8 = _project_constraint(sol.y[:, -1], R)
                ph = _phase_from_y8(y8)
                chart = chart_select(ph.z, params)
                st = momentum_project(ph, chart, params)
                y = np.array(
                    [
                        st.point.q1,
                        st.point.q2,
                        st.point.phi,
                        st.p1,
                        st.p2,
                        st.pphi,
                    ]
                )
                repr_kind = "chart"
            else:
                t = float(sol.t[-1])
                y = _project_constraint(sol.y[:, -1], R)

    # ---- assemble samples -------------------------------------------------
    samples = []
    for t_i, kind, chart_i, yvec in raw_samples:
        if kind == "chart":
            state = PhaseState(
                ChartPoint(chart_i, yvec[0], yvec[1], yvec[2]), yvec[3], yvec[4], yvec[5]
            )
            ph = momentum_lift(state, params)
            y8 = _y8_from_phase(ph)
        else:
            y8 = yvec
        quad = y8[0] ** 2 + y8[1] ** 2 - y8[2] ** 2 - y8[3] ** 2
        drift = abs(quad - R2)
        max_drift = max(max_drift, drift)
        if drift > CONSTRAINT_ABORT * R2:
            raise IntegrationError(
                f"constraint drift {drift:.3e} beyond {CONSTRAINT_ABORT:.0e}*R^2 at t={t_i}"
            )
        if kind == "ambient":
            y8 = _project_constraint(y8, R)
            ph = _phase_from_y8(y8)
            chart_i = chart_select(ph.z, params)
            state = momentum_project(ph, chart_i, params)
        inv = evaluate_invariants(ph, params, mode.value)
        samples.append(Sample(float(t_i), state, ph, inv))

    # ---- period-closure pass ---------------------------------------------
    traj = Trajectory(tuple(samples), tuple(events), params, mode, tuple(pieces))
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
            tuple(pieces),
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
