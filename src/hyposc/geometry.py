"""Charts, embeddings and momentum lifts for the hyperboloid H(2,2).

The configuration space is the surface

    z0^2 + z1^2 - z2^2 - z3^2 = R^2

in ambient R^{2,2} with metric G = diag(-1, -1, +1, +1), so the constraint
reads G(z, z) = -R^2.  Two chart families cover it:

    outer, |z0| >= R:   z0 = s R cosh r,   z1 = R sinh r sinh tau,
                        z2 = R sinh r cosh tau cos phi,
                        z3 = R sinh r cosh tau sin phi,

    inner, |z0| <= R:   z0 = s R cos chi,  z1 = R sin chi cosh mu,
                        z2 = R sin chi sinh mu cos phi,
                        z3 = R sin chi sinh mu sin phi,

with sheet sign s = +/-1, r >= 0, chi in (-pi/2, pi/2), tau and mu real,
phi in [0, 2*pi).  Both families degenerate on the cone |z0| = R,
z1^2 = z2^2 + z3^2; trajectories that reach it are integrated in the
ambient representation (see dynamics).

Covariant chart momenta lift to ambient covectors via p = G J g^{-1} p_q,
with J the chart Jacobian and g = J^T G J the induced metric.  The lift
preserves kinetic energy and satisfies the tangency constraint

    z0 p0 + z1 p1 + z2 p2 + z3 p3 = 0

(differentiate G(z, z) = -R^2 and lower the index on zdot).  The inverse is
the plain transpose, p_q = J^T p.

The inner parametrization is two-to-one ((-mu, phi+pi) is the same point);
`unembed` canonicalizes to mu >= 0 and absorbs the sign into phi.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .duals import _real, any_row, cos, cosh, guarded, nonzeroish, sin, sinh

TWO_PI = 2.0 * math.pi

# diag of the ambient metric G and of the constraint quadratic z.z = R^2
METRIC_DIAG = np.array([-1.0, -1.0, 1.0, 1.0])
CONSTRAINT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

# relative tolerance on |z.z - R^2| accepted by chart_select / unembed
# (matches the integrator's abort threshold, not the embed guarantee)
CONSTRAINT_RTOL = 1e-8

EPS = float(np.finfo(float).eps)
# unembed takes q1 from the transverse components below sinh^2 / sin^2 q1 = this
NEAR_POLE = 1e-4


class ChartId(Enum):
    OUTER_PLUS = "outer_plus"
    OUTER_MINUS = "outer_minus"
    INNER_PLUS = "inner_plus"
    INNER_MINUS = "inner_minus"

    @property
    def is_outer(self) -> bool:
        return self in (ChartId.OUTER_PLUS, ChartId.OUTER_MINUS)

    @property
    def sheet_sign(self) -> float:
        """Sign of z0 on this chart."""
        if self in (ChartId.OUTER_PLUS, ChartId.INNER_PLUS):
            return 1.0
        return -1.0


@dataclass(frozen=True)
class ModelParams:
    """Oscillator frequency and hyperboloid radius (omega = 0 is free motion)."""

    omega: float = 1.0
    radius: float = 1.0

    def __post_init__(self):
        if not (self.omega >= 0.0):
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class ChartPoint:
    """A point in chart coordinates: q1 = r or chi, q2 = tau or mu."""

    chart: ChartId
    q1: float
    q2: float
    phi: float

    def __post_init__(self):
        if self.chart.is_outer:
            if _real(self.q1) < 0.0:
                raise ValueError("outer chart requires r >= 0")
        else:
            if not (-math.pi / 2 < _real(self.q1) < math.pi / 2):
                raise ValueError("inner chart requires |chi| < pi/2")
        object.__setattr__(self, "phi", self.phi % TWO_PI)


@dataclass(frozen=True)
class EmbeddingPoint:
    z0: float
    z1: float
    z2: float
    z3: float

    @property
    def array(self) -> np.ndarray:
        return np.array([self.z0, self.z1, self.z2, self.z3], dtype=float)


@dataclass(frozen=True)
class PhaseState:
    """Chart point plus covariant momenta (p1 = p_r or p_chi, p2 = p_tau or p_mu)."""

    point: ChartPoint
    p1: float
    p2: float
    pphi: float

    def __post_init__(self):
        # angular momenta at the chart pole are not limits of physical states
        if _real(self.point.q1) == 0.0 and (
            _real(self.p2) != 0.0 or _real(self.pphi) != 0.0
        ):
            raise ValueError("angular momenta at the coordinate pole q1 = 0")


@dataclass(frozen=True)
class EmbeddingPhase:
    z: EmbeddingPoint
    p0: float
    p1: float
    p2: float
    p3: float

    @property
    def momentum_array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p3], dtype=float)


# ---------------------------------------------------------------------------
# point maps
# ---------------------------------------------------------------------------


def _trig(outer: bool, q1, q2, phi):
    """(a, b, cosh q2, sinh q2, cos phi, sin phi) with a, b = cosh, sinh of r
    on outer charts and cos, sin of chi on inner ones."""
    if outer:
        a, b = cosh(q1), sinh(q1)
    else:
        a, b = cos(q1), sin(q1)
    return a, b, cosh(q2), sinh(q2), cos(phi), sin(phi)


def _embed(outer: bool, s, R, a, b, c, d, cp, sp):
    # outer: z1 carries sinh tau, the transverse radius cosh tau; inner swaps
    if outer:
        z1, rho = R * b * d, R * b * c
    else:
        z1, rho = R * b * c, R * b * d
    return (s * R * a, z1, rho * cp, rho * sp)


def embed(point: ChartPoint, params: ModelParams) -> EmbeddingPoint:
    """Chart coordinates -> ambient coordinates."""
    outer = point.chart.is_outer
    trig = _trig(outer, point.q1, point.q2, point.phi)
    return EmbeddingPoint(*_embed(outer, point.chart.sheet_sign, params.radius, *trig))


def constraint_residual(z: EmbeddingPoint, params: ModelParams) -> float:
    """z0^2 + z1^2 - z2^2 - z3^2 - R^2 (zero on the hyperboloid)."""
    return z.z0 * z.z0 + z.z1 * z.z1 - z.z2 * z.z2 - z.z3 * z.z3 - params.radius**2


def _check_constraint(z: EmbeddingPoint, params: ModelParams):
    R2 = params.radius**2
    resid = constraint_residual(z, params)
    if not (abs(resid) <= CONSTRAINT_RTOL * R2):
        raise ValueError(f"point off the hyperboloid: |z.z - R^2| = {abs(resid):.3e}")


def chart_select(z: EmbeddingPoint, params: ModelParams) -> ChartId:
    """Canonical chart of an embedded point; ties at |z0| = R go outer."""
    _check_constraint(z, params)
    if abs(z.z0) >= params.radius:
        return ChartId.OUTER_PLUS if z.z0 >= 0.0 else ChartId.OUTER_MINUS
    return ChartId.INNER_PLUS if z.z0 >= 0.0 else ChartId.INNER_MINUS


def unembed(z: EmbeddingPoint, chart: ChartId, params: ModelParams) -> ChartPoint:
    """Ambient coordinates -> chart coordinates (inverse of embed).

    At the coordinate pole (z = (+-R, 0, 0, 0)) the angular coordinates are
    set to zero by convention.  Raises for points incompatible with the
    requested chart or on the degenerate cone away from the pole.
    """
    _check_constraint(z, params)
    R = params.radius
    s = chart.sheet_sign
    if s * z.z0 < 0.0:
        raise ValueError(f"sheet mismatch: z0 = {z.z0} on chart {chart.value}")
    c = abs(z.z0) / R
    slack = CONSTRAINT_RTOL
    # near the pole acos/acosh of c lose the radial coordinate to rounding
    # (c - 1 ~ q1^2/2, so ~eps/q1^2 relative error); on the shell the
    # transverse part keeps it: sinh^2 r = (rho^2 - z1^2)/R^2 and
    # sin^2 chi = (z1^2 - rho^2)/R^2.  It is used within q1 ~ 1e-2 of the
    # pole while it stands above its own cancellation error (on the cone
    # z1^2 = rho^2 it does not, and the point still raises)
    rho2, z1sq = z.z2 * z.z2 + z.z3 * z.z3, z.z1 * z.z1
    floor = 4.0 * EPS * (rho2 + z1sq) / (R * R)
    if chart.is_outer:
        if c < 1.0 - slack:
            raise ValueError(f"|z0| < R: point not on outer chart ({c=})")
        sh2 = (rho2 - z1sq) / (R * R)
        if floor < sh2 < NEAR_POLE:
            sh = math.sqrt(sh2)
            r = math.asinh(sh)
        else:
            r = math.acosh(max(c, 1.0))
            sh = math.sinh(r)
        if sh == 0.0:
            if max(abs(z.z1), abs(z.z2), abs(z.z3)) > 1e-12 * R:
                raise ValueError("point on the degenerate cone |z0| = R")
            return ChartPoint(chart, 0.0, 0.0, 0.0)
        tau = math.asinh(z.z1 / (R * sh))
        phi = math.atan2(z.z3, z.z2)
        return ChartPoint(chart, r, tau, phi)
    if c > 1.0 + slack:
        raise ValueError(f"|z0| > R: point not on inner chart ({c=})")
    sn2 = (z1sq - rho2) / (R * R)
    a = math.asin(math.sqrt(sn2)) if floor < sn2 < NEAR_POLE else math.acos(min(c, 1.0))
    if a == 0.0:
        if max(abs(z.z1), abs(z.z2), abs(z.z3)) > 1e-12 * R:
            raise ValueError("point on the degenerate cone |z0| = R")
        return ChartPoint(chart, 0.0, 0.0, 0.0)
    if z.z1 == 0.0:
        raise ValueError("degenerate inner point: sin(chi) != 0 requires z1 != 0")
    chi = a if z.z1 > 0.0 else -a
    sn = math.sin(chi)
    w = math.hypot(z.z2, z.z3) / (R * abs(sn))
    mu = math.asinh(w)  # canonical mu >= 0
    if w == 0.0:
        phi = 0.0
    else:
        sgn = 1.0 if sn > 0.0 else -1.0
        phi = math.atan2(sgn * z.z3, sgn * z.z2)
    return ChartPoint(chart, chi, mu, phi)


def beltrami(z: EmbeddingPoint, params: ModelParams):
    """Projective coordinates x_i = R z_i / z0 (conics become plane quadrics)."""
    if z.z0 == 0.0:
        raise ValueError("Beltrami projection undefined at z0 = 0")
    k = params.radius / z.z0
    return (k * z.z1, k * z.z2, k * z.z3)


def chart_transition(point: ChartPoint, params: ModelParams) -> ChartPoint:
    """Re-express a point in the opposite chart family when it lies there.

    Realized entirely through the real ambient embedding: embed, pick the
    target chart, unembed.  The opposite family only exists for points with
    |z0| on its side of R (boundary included), so away from the boundary
    the canonical representation is returned unchanged.
    """
    z = embed(point, params)
    R = params.radius
    on_opposite = abs(z.z0) <= R if point.chart.is_outer else abs(z.z0) >= R
    if on_opposite:
        if point.chart.is_outer:
            target = ChartId.INNER_PLUS if z.z0 >= 0.0 else ChartId.INNER_MINUS
        else:
            target = ChartId.OUTER_PLUS if z.z0 >= 0.0 else ChartId.OUTER_MINUS
    else:
        target = chart_select(z, params)
    return unembed(z, target, params)


# ---------------------------------------------------------------------------
# momentum maps
# ---------------------------------------------------------------------------


def lift_coords(chart: ChartId, coords, radius: float) -> tuple:
    """Chart phase coordinates -> ambient (z0, z1, z2, z3, p0, p1, p2, p3).

    ``coords`` = (q1, q2, phi, p1, p2, pphi), each a float, an (N,) array
    with one entry per state, or a dual of either.  The covariant momenta
    are p = G J g^{-1} p_q in closed form on both chart families (the inner
    ones derived by the same Jacobian construction).  Raises when angular
    momenta meet a vanishing denominator (chart pole, or mu = 0 with
    p_phi != 0 on the inner chart) in any row.
    """
    q1, q2, phi, p1, p2, pphi = coords
    outer = chart.is_outer
    s = chart.sheet_sign
    trig = _trig(outer, q1, q2, phi)
    a, b, c, d, cp, sp = trig
    has_pphi = nonzeroish(pphi)
    has_ang = nonzeroish(p2) | has_pphi

    if outer:
        sh, ch, sht, cht = b, a, d, c
        a0 = -s * sh * p1
        a1 = -ch * sht * p1
        a2 = ch * cht * cp * p1
        a3 = ch * cht * sp * p1
        if any_row(has_ang):
            sh = guarded(sh, has_ang, "angular momenta at r = 0")
            a1 = a1 + cht * p2 / sh
            a2 = a2 - sht * cp * p2 / sh - sp * pphi / (sh * cht)
            a3 = a3 - sht * sp * p2 / sh + cp * pphi / (sh * cht)
    else:
        sn, cn, shm, chm = b, a, d, c
        a0 = -s * sn * p1
        a1 = cn * chm * p1
        a2 = -cn * shm * cp * p1
        a3 = -cn * shm * sp * p1
        if any_row(has_ang):
            sn = guarded(sn, has_ang, "angular momenta at chi = 0")
            a1 = a1 - shm * p2 / sn
            a2 = a2 + chm * cp * p2 / sn
            a3 = a3 + chm * sp * p2 / sn
            if any_row(has_pphi):
                shm = guarded(shm, has_pphi, "azimuthal momentum on the mu = 0 axis")
                a2 = a2 - sp * pphi / (sn * shm)
                a3 = a3 + cp * pphi / (sn * shm)
    R = radius
    return _embed(outer, s, R, *trig) + (a0 / R, a1 / R, a2 / R, a3 / R)


def momentum_lift(state: PhaseState, params: ModelParams) -> EmbeddingPhase:
    """Chart momenta -> ambient covariant momenta, p = G J g^{-1} p_q.

    The single-state view of `lift_coords`.
    """
    pt = state.point
    z0, z1, z2, z3, p0, p1, p2, p3 = lift_coords(
        pt.chart, (pt.q1, pt.q2, pt.phi, state.p1, state.p2, state.pphi), params.radius)
    return EmbeddingPhase(EmbeddingPoint(z0, z1, z2, z3), p0, p1, p2, p3)


def tangency_residual(ph: EmbeddingPhase) -> float:
    """sum_mu z^mu p_mu (zero for momenta tangent to the hyperboloid)."""
    z = ph.z
    return z.z0 * ph.p0 + z.z1 * ph.p1 + z.z2 * ph.p2 + z.z3 * ph.p3


def chart_jacobian(point: ChartPoint, params: ModelParams) -> np.ndarray:
    """4x3 Jacobian dz^mu / dq^i at a chart point."""
    R = params.radius
    s = point.chart.sheet_sign
    cp, sp = math.cos(point.phi), math.sin(point.phi)
    if point.chart.is_outer:
        sh, ch = math.sinh(point.q1), math.cosh(point.q1)
        sht, cht = math.sinh(point.q2), math.cosh(point.q2)
        return np.array(
            [
                [s * R * sh, 0.0, 0.0],
                [R * ch * sht, R * sh * cht, 0.0],
                [R * ch * cht * cp, R * sh * sht * cp, -R * sh * cht * sp],
                [R * ch * cht * sp, R * sh * sht * sp, R * sh * cht * cp],
            ]
        )
    sn, cn = math.sin(point.q1), math.cos(point.q1)
    shm, chm = math.sinh(point.q2), math.cosh(point.q2)
    return np.array(
        [
            [-s * R * sn, 0.0, 0.0],
            [R * cn * chm, R * sn * shm, 0.0],
            [R * cn * shm * cp, R * sn * chm * cp, -R * sn * shm * sp],
            [R * cn * shm * sp, R * sn * chm * sp, R * sn * shm * cp],
        ]
    )


def momentum_project(
    ph: EmbeddingPhase, chart: ChartId, params: ModelParams
) -> PhaseState:
    """Ambient covariant momenta -> chart momenta via p_q = J^T p."""
    point = unembed(ph.z, chart, params)
    p_chart = chart_jacobian(point, params).T @ ph.momentum_array
    return PhaseState(point, p_chart[0], p_chart[1], p_chart[2])


def phase_transition(state: PhaseState, params: ModelParams) -> PhaseState:
    """Full phase-space chart change through the ambient representation."""
    ph = momentum_lift(state, params)
    return momentum_project(ph, chart_select(ph.z, params), params)
