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
`project_coords` canonicalizes to mu >= 0 and absorbs the sign into phi.
"""

import math
from dataclasses import dataclass

import numpy as np

from .duals import any_row, cos, cosh, guarded, nonzeroish, sin, sinh
from .regimes import ChartId, ModelParams

TWO_PI = 2.0 * math.pi

# relative tolerance on |z.z - R^2| accepted by chart_select / project_coords, and the
# drift beyond which the integrator aborts an ambient run (not the embed guarantee)
CONSTRAINT_RTOL = 1e-8

EPS = float(np.finfo(float).eps)
# project_coords takes q1 from the transverse components below sinh^2 / sin^2 q1 = this
NEAR_POLE = 1e-4


@dataclass(frozen=True)
class ChartPoint:
    """A point in chart coordinates: q1 = r or chi, q2 = tau or mu."""

    chart: ChartId
    q1: float
    q2: float
    phi: float

    def __post_init__(self):
        if self.chart.is_outer:
            if self.q1 < 0.0:
                raise ValueError("outer chart requires r >= 0")
        else:
            if not (-math.pi / 2 < self.q1 < math.pi / 2):
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
        if self.point.q1 == 0.0 and (self.p2 != 0.0 or self.pphi != 0.0):
            raise ValueError("angular momenta at the coordinate pole q1 = 0")
        # nor is p_phi on an inner chart's mu = 0 axis, where the lift divides by sinh(mu)
        if self.point.q2 == 0.0 and self.pphi != 0.0 and not self.point.chart.is_outer:
            raise ValueError("azimuthal momentum on the mu = 0 axis")


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


def _shell_check(z0, z1, z2, z3, R):
    """The `_raise_first` check of points off the hyperboloid: |z.z - R^2|
    above CONSTRAINT_RTOL R^2, or not finite."""
    with np.errstate(invalid="ignore"):  # inf - inf
        resid = np.abs(z0 * z0 + z1 * z1 - z2 * z2 - z3 * z3 - R**2)
    message = "point off the hyperboloid: |z.z - R^2| = {:.3e}"
    return ~(resid <= CONSTRAINT_RTOL * R**2), message, resid


def _raise_first(*checks):
    """Raise ValueError for the first row that fails one of the (mask, message,
    values) checks, with the message of its first failing check in the order
    given (a single state's order) formatted with that row's value."""
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if bad.any():
        k = int(np.argmax(bad))
        message, values = next((m, v) for mask, m, v in checks if mask[k])
        raise ValueError(message.format(float(values[k])))


_CHARTS = np.array(list(ChartId), dtype=object)  # outer +, outer -, inner +, inner -


def chart_select(z, params: ModelParams):
    """Canonical chart of an EmbeddingPoint, or an (N,) object array of the
    charts of the columns of a (4, N) array; ties at |z0| = R go outer.
    Raises ValueError for the first point off the hyperboloid."""
    zs = np.asarray(z.array if isinstance(z, EmbeddingPoint) else z, dtype=float)
    z0, z1, z2, z3 = zs.reshape(4, -1)
    _raise_first(_shell_check(z0, z1, z2, z3, params.radius))
    charts = _CHARTS[2 * (np.abs(z0) < params.radius) + (z0 < 0.0)]
    return charts if zs.ndim > 1 else charts[0]


def project_coords(chart: ChartId, y8, radius: float) -> tuple:
    """Ambient (z0, z1, z2, z3, p0, p1, p2, p3) -> chart phase coordinates
    (q1, q2, phi, p1, p2, pphi) on ``chart``: the inverse of `lift_coords`.

    Each component is a float or an (N,) array, one entry per state, and so
    is each result.  At the pole z = (+-R, 0, 0, 0) the angles are zero by
    convention; inner points take mu >= 0; phi lies in [0, 2 pi); the momenta
    are p_q = J^T p.  Raises ValueError, with the message of the first bad
    row alone, for a point off the hyperboloid, on the other sheet or chart
    family, on the cone away from the pole, or inner with z1 = 0 there.
    """
    y = np.asarray(y8, dtype=float)
    z0, z1, z2, z3, p0, p1, p2, p3 = y.reshape(8, -1)
    R, s, outer = radius, chart.sheet_sign, chart.is_outer
    c = np.abs(z0) / R
    # near the pole acos/acosh of c lose the radial coordinate to rounding
    # (c - 1 ~ q1^2/2, so ~eps/q1^2 relative error); on the shell the
    # transverse part keeps it: sinh^2 r = (rho^2 - z1^2)/R^2 and
    # sin^2 chi = (z1^2 - rho^2)/R^2.  It is used within q1 ~ 1e-2 of the
    # pole while it stands above its own cancellation error (on the cone
    # z1^2 = rho^2 it does not, and the point still raises)
    rho2, z1sq = z2 * z2 + z3 * z3, z1 * z1
    floor = 4.0 * EPS * (rho2 + z1sq) / (R * R)
    with np.errstate(invalid="ignore"):  # a non-finite row gives nan here and raises below
        b2 = (rho2 - z1sq if outer else z1sq - rho2) / (R * R)
        near = (floor < b2) & (b2 < NEAR_POLE)
        root = np.sqrt(np.where(near, b2, 0.0))
        if outer:
            family = c < 1.0 - CONSTRAINT_RTOL, "|z0| < R: point not on outer chart (c={!r})"
            q1 = np.where(near, np.arcsinh(root), np.arccosh(np.maximum(c, 1.0)))
            b = np.where(near, root, np.sinh(q1))  # sinh r
            pole = b == 0.0
            q2 = np.arcsinh(z1 / (R * np.where(pole, 1.0, b)))
            phi = np.arctan2(z3, z2)
        else:
            family = c > 1.0 + CONSTRAINT_RTOL, "|z0| > R: point not on inner chart (c={!r})"
            a = np.where(near, np.arcsin(root), np.arccos(np.minimum(c, 1.0)))
            q1 = np.where(z1 > 0.0, a, -a)
            b = np.sin(q1)  # sin chi
            pole = b == 0.0
            w = np.hypot(z2, z3) / (R * np.abs(np.where(pole, 1.0, b)))
            q2 = np.arcsinh(w)  # canonical mu >= 0
            phi = np.where(w == 0.0, 0.0, np.arctan2(np.sign(b) * z3, np.sign(b) * z2))
    cone = pole & (np.maximum(np.abs(z1), np.maximum(np.abs(z2), np.abs(z3))) > 1e-12 * R)
    _raise_first(
        _shell_check(z0, z1, z2, z3, R),
        (s * z0 < 0.0, f"sheet mismatch: z0 = {{}} on chart {chart.value}", z0),
        (*family, c),
        (cone, "point on the degenerate cone |z0| = R", c),
        (~pole & (z1 == 0.0) & (not outer),
         "degenerate inner point: sin(chi) != 0 requires z1 != 0", c),
    )
    q1, q2, phi = (np.where(pole, 0.0, v) for v in (q1, q2, np.remainder(phi, TWO_PI)))

    a, b, c, d, cp, sp = _trig(outer, q1, q2, phi)
    u, v = (d, c) if outer else (c, d)  # z1 = R b u, transverse radius R b v (see _embed)
    pt = cp * p2 + sp * p3  # momentum along the transverse radius
    out = (q1, q2, phi,
           R * ((s * b if outer else -s * b) * p0 + a * (u * p1 + v * pt)),
           R * b * (v * p1 + u * pt),
           R * b * v * (cp * p3 - sp * p2))
    return out if y.ndim > 1 else tuple(float(x[0]) for x in out)


def unembed(z: EmbeddingPoint, chart: ChartId, params: ModelParams) -> ChartPoint:
    """Ambient coordinates -> chart coordinates: the single-point view of
    `project_coords`, which states its conventions and the points it raises for."""
    q = project_coords(chart, (*z.array, 0.0, 0.0, 0.0, 0.0), params.radius)
    return ChartPoint(chart, *q[:3])


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


def momentum_project(
    ph: EmbeddingPhase, chart: ChartId, params: ModelParams
) -> PhaseState:
    """Ambient covariant momenta -> chart momenta via p_q = J^T p: the
    single-state view of `project_coords`."""
    q1, q2, phi, p1, p2, pphi = project_coords(
        chart, (*ph.z.array, *ph.momentum_array), params.radius)
    return PhaseState(ChartPoint(chart, q1, q2, phi), p1, p2, pphi)
