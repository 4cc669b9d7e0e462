"""Closed-form orbit analysis.

Radial motion separates in X = tanh^2 r:  omega^2 R^4 X^2 - (2R^2 E + L^2) X
+ L^2 = 0 gives the turning values x1 <= x2, and the shape variable

    s = (z0^2 - R^2)/R^2   (= sinh^2 r outer, = -sin^2 chi inner)

obeys one master solution per regime.  Bounded motion (E < omega^2 R^2 / 2):

    s(t) = [ mid + Delta sin(2 w0 (t - t0)) ] / den,
    mid = 2E - L^2/R^2,  den = 2(omega^2 R^2 - 2E),
    Delta = sqrt((2E + L^2/R^2)^2 - 4 L^2 omega^2),
    w0 = omega sqrt(1 - 2E / omega^2 R^2),

with period T = pi / w0; t0 is the upward mean crossing s(t0) = mid/den.
Unbounded motion replaces sin by cosh with w_c = omega sqrt(2E/omega^2R^2 - 1)
and t0 the closest approach; the threshold E = omega^2 R^2/2 degenerates to

    cosh^2 r = (1 - lam)^{-1} + omega^2 (1 - lam) (t - t0)^2,  lam = L^2/omega^2R^4.

Negative L^2 has x1 < 0 < x2: the orbit crosses the cone |z0| = R, and the
signed s runs between -sin^2 chi_max and sinh^2 r_max (cot^2 chi_max = -1/x1,
coth^2 r_max = 1/x2).  Orbit curves for L^2 > 0 are conics of the Beltrami
coordinates; negative-L^2 curves are given chartwise in (tau, r) and (mu, chi).

The classification by regime, conic, turning radii and period is in
`regimes`, which needs no numpy; its names are re-exported here.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import ChartId, ChartPoint, PhaseState, _embed, _trig
from .files import atomic_write_text, table_text
# the scalar regime analysis, re-exported here
from .regimes import (  # noqa: F401
    Carrier,
    ConicKind,
    ConicParams,
    ModelParams,
    OrbitClassification,
    RadialRegime,
    classify,
    eff_minimum,
    inner_turning_angle,
    orbit_conic,
    period_formula,
    radial_roots,
    turning_radii,
    _BOUNDED,
    _energy_band,
    _regime_only,
)


def __getattr__(name):
    # fig9 imports the integrator when it runs, so that the other figures and
    # canonical_state load no `dynamics`; the name stays reachable here for
    # bench/tracer.py, which wraps it on this module
    if name == "integrate":
        from .dynamics import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ConvergenceReport:
    radii: tuple
    deviations: tuple
    slope: float
    p_flat: float
    eps_flat: float
    p_scaled: tuple  # R^2 p(R), converging to p_flat
    eps_values: tuple


# ---------------------------------------------------------------------------
# effective potential
# ---------------------------------------------------------------------------


def effective_potential(r, l_sq: float, params: ModelParams):
    """U_eff(r) = (omega^2 R^2/2) tanh^2 r + L^2 / (2 R^2 sinh^2 r)."""
    r = np.asarray(r, dtype=float) if not np.isscalar(r) else r
    if l_sq != 0.0 and np.any(np.asarray(r) == 0.0):
        raise ValueError("r = 0 is singular unless l_sq = 0")
    w = 0.5 * params.omega**2 * params.radius**2
    u = w * np.tanh(r) ** 2
    if l_sq != 0.0:
        u = u + l_sq / (2.0 * params.radius**2 * np.sinh(r) ** 2)
    return u


# ---------------------------------------------------------------------------
# radial time solutions
# ---------------------------------------------------------------------------


def radial_solution(
    e: float, l_sq: float, params: ModelParams, t0: float = 0.0
) -> Callable:
    """Closed-form t -> s(t) for the classified regime (s signed; see module doc).

    Phase conventions: bounded motion places the upward mean crossing at t0
    (s(t0) = mid/den, sdot > 0); unbounded and threshold motion place the
    closest approach at t0; circular motion is constant.
    """
    regime = _regime_only(e, l_sq, params)
    if regime == RadialRegime.FORBIDDEN:
        raise ValueError("no classical motion for this (e, l_sq)")
    w2r2 = params.omega**2 * params.radius**2
    lam_r2 = l_sq / params.radius**2

    if regime == RadialRegime.CIRCULAR:
        r0, _ = eff_minimum(l_sq, params)
        s0 = math.sinh(r0) ** 2

        def sol_circ(t):
            return s0 + 0.0 * np.asarray(t, dtype=float)

        return sol_circ

    if regime == RadialRegime.THRESHOLD or (
        regime in (RadialRegime.ZERO_L2_UNBOUNDED, RadialRegime.NEG_L2_UNBOUNDED)
        and abs(e - 0.5 * w2r2) <= _energy_band(e, 0.5 * w2r2)
    ):
        lam = l_sq / (params.omega**2 * params.radius**4)
        c = 1.0 - lam

        def sol_thr(t):
            dt = np.asarray(t, dtype=float) - t0
            return (1.0 / c + params.omega**2 * c * dt * dt) - 1.0

        return sol_thr

    if regime in _BOUNDED:
        mid = 2.0 * e - lam_r2
        den = 2.0 * (w2r2 - 2.0 * e)
        delta = math.sqrt((2.0 * e + lam_r2) ** 2 - 4.0 * l_sq * params.omega**2)
        w0 = params.omega * math.sqrt(1.0 - 2.0 * e / w2r2)

        def sol_bnd(t):
            dt = np.asarray(t, dtype=float) - t0
            return (mid + delta * np.sin(2.0 * w0 * dt)) / den

        return sol_bnd

    # unbounded: UnboundedGeneric, RepulsiveL2, ZeroL2Unbounded, NegL2Unbounded
    delta = math.sqrt((2.0 * e + lam_r2) ** 2 - 4.0 * l_sq * params.omega**2)
    den = 2.0 * (2.0 * e - w2r2)
    wc = params.omega * math.sqrt(2.0 * e / w2r2 - 1.0)

    def sol_unb(t):
        dt = np.asarray(t, dtype=float) - t0
        return ((lam_r2 - 2.0 * e) + delta * np.cosh(2.0 * wc * dt)) / den

    return sol_unb


def time_of_flight(
    r_a: float, r_b: float, e: float, l_sq: float, params: ModelParams
) -> float:
    """Travel time between radii inside one classically allowed stretch.

    With X = x1 + (x2 - x1) sin^2 theta the time is
    (1/omega) int d theta / (a cos^2 theta + b sin^2 theta), a = 1 - x1,
    b = 1 - x2, whose antiderivative F is elementary:

        b > 0:  atan2(sqrt(b) sin theta, sqrt(a) cos theta) / sqrt(a b)
        b = 0:  tan theta / a
        b < 0:  atanh(sqrt(-b) tan theta / sqrt(a)) / sqrt(-a b)

    and t = (F(theta_b) - F(theta_a)) / omega.
    """
    if r_a == r_b:
        return 0.0
    x1, x2 = radial_roots(e, l_sq, params)
    xa = math.tanh(r_a) ** 2
    xb = math.tanh(r_b) ** 2
    if xa > xb:
        xa, xb = xb, xa
    tol = 1e-9 * max(1.0, abs(x1), abs(x2))
    if xa < x1 - tol or xb > x2 + tol:
        raise ValueError("interval crosses a turning point")
    if x2 == x1:
        raise ValueError("degenerate (circular) turning structure")
    xa = min(max(xa, x1), x2)
    xb = min(max(xb, x1), x2)
    tha = math.asin(math.sqrt((xa - x1) / (x2 - x1)))
    thb = math.asin(math.sqrt((xb - x1) / (x2 - x1)))
    a, b = 1.0 - x1, 1.0 - x2

    def antiderivative(th):
        if b > 0.0:
            y, x = math.sqrt(b) * math.sin(th), math.sqrt(a) * math.cos(th)
            return math.atan2(y, x) / math.sqrt(a * b)
        if b == 0.0:
            return math.tan(th) / a
        return math.atanh(math.sqrt(-b) * math.tan(th) / math.sqrt(a)) / math.sqrt(-a * b)

    return (antiderivative(thb) - antiderivative(tha)) / params.omega


def half_period_formula(e: float, l_sq: float, params: ModelParams) -> float:
    """Turning-point-to-turning-point time, pi / (2 omega sqrt((1-x1)(1-x2)))."""
    x1, x2 = radial_roots(e, l_sq, params)
    return math.pi / (2.0 * params.omega * math.sqrt((1.0 - x1) * (1.0 - x2)))


# ---------------------------------------------------------------------------
# angular relation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngularSolution:
    """Relation between the second coordinate (tau or mu) and the azimuth.

    kind "tau_of_phi": call with phi to get tau (outer-chart branches).
    kind "constant_phi": pphi = 0, the azimuth is frozen at phi0 and the
    second coordinate is the free parameter along the orbit.
    """

    kind: str
    phi0: float
    coeff: float  # branch-specific coefficient, see residual()

    def __call__(self, phi):
        if self.kind == "constant_phi":
            raise ValueError("azimuth is constant on this orbit; q2 is free")
        d = np.sin(self.phi0 - np.asarray(phi, dtype=float))
        if self.kind == "tau_zero":
            return 0.0 * d
        if self.kind == "l_zero":
            return np.arcsinh(np.tan(self.phi0 - np.asarray(phi, dtype=float)))
        if self.kind == "tau_of_phi":
            return np.arctanh(self.coeff * d)
        # neg-L2 with pphi != 0: tanh tau = sin(phi0 - phi)/coeff, |...| <= 1
        arg = d / self.coeff
        return np.arctanh(arg)

    def residual(self, q2, phi) -> float:
        """Defect of the orbit relation at (q2, phi); zero on the orbit."""
        q2 = np.asarray(q2, dtype=float)
        d = np.sin(self.phi0 - np.asarray(phi, dtype=float))
        if self.kind == "constant_phi":
            return float(np.max(np.abs(d)))
        if self.kind == "tau_zero":
            return float(np.max(np.abs(np.tanh(q2))))
        if self.kind == "l_zero":
            return float(np.max(np.abs(np.sinh(q2) - np.tan(self.phi0 - np.asarray(phi)))))
        if self.kind == "tau_of_phi":
            return float(np.max(np.abs(np.tanh(q2) - self.coeff * d)))
        return float(np.max(np.abs(self.coeff * np.tanh(q2) - d)))


def angular_solution(l_sq: float, pphi: float, phi0: float = 0.0) -> AngularSolution:
    """Orbit relation between tau (or mu) and phi for given (L^2, p_phi).

    Outer positive L^2: tanh tau = sqrt(1 - L^2/p_phi^2) sin(phi0 - phi).
    L^2 = 0: sinh tau = tan(phi0 - phi).
    L^2 < 0: sin(phi0 - phi) = p_phi/sqrt(p_phi^2 + |L^2|) tanh tau, and with
    p_phi = 0 the azimuth is constant.
    """
    if l_sq > 0.0:
        if l_sq > pphi * pphi:
            raise ValueError("need p_phi^2 >= L^2 on the outer chart")
        c = math.sqrt(1.0 - l_sq / (pphi * pphi))
        if c == 0.0:
            return AngularSolution("tau_zero", phi0, 0.0)
        return AngularSolution("tau_of_phi", phi0, c)
    if l_sq == 0.0:
        return AngularSolution("l_zero", phi0, 1.0)
    if pphi == 0.0:
        return AngularSolution("constant_phi", phi0, 0.0)
    c = abs(pphi) / math.sqrt(pphi * pphi - l_sq)
    return AngularSolution("neg_l2", phi0, c)


# ---------------------------------------------------------------------------
# negative-L^2 trajectories (p_phi = 0 reduction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NegL2Trajectory:
    """Both chart branches of a negative-L^2 orbit curve (p_phi = 0).

    outer(tau) -> coth^2 r and inner(mu) -> cot^2 chi, with coefficients c1
    and c2; r_max is None for unbounded energies, where tau_min marks the
    escape asymptote instead.
    """

    outer: Callable
    inner: Callable
    r_max: Optional[float]
    chi_max: float
    tau_min: Optional[float]
    e: float
    l_sq: float
    beta: float
    c1: float
    c2: float


def trajectory_negative_l2(
    e: float, l_sq: float, pphi: float, beta: float, params: ModelParams
) -> NegL2Trajectory:
    """Orbit curve for l_sq < 0 with the azimuth frozen (pphi = 0).

    coth^2 r = c1 + c2 cosh(2 tau + 4 sqrt(|L^2|) beta),
    cot^2 chi = -c1 + c2 cosh(2 mu + 4 sqrt(|L^2|) beta),
    c1 = 1/2 - E R^2/|L^2|,  c2 = sqrt(c1^2 + omega^2 R^4/|L^2|).
    """
    if l_sq >= 0.0:
        raise ValueError("requires l_sq < 0")
    if pphi != 0.0:
        raise ValueError("closed form covers the reduced pphi = 0 case")
    regime = _regime_only(e, l_sq, params)
    if regime == RadialRegime.FORBIDDEN:  # E <= 0 with L^2 in the zero band
        raise ValueError("no classical motion for this (e, l_sq)")
    al = abs(l_sq)
    c1 = 0.5 - e * params.radius**2 / al
    c2 = math.sqrt(c1 * c1 + params.omega**2 * params.radius**4 / al)
    shift = 4.0 * math.sqrt(al) * beta

    def outer(tau):
        return c1 + c2 * np.cosh(2.0 * np.asarray(tau, dtype=float) + shift)

    def inner(mu):
        return -c1 + c2 * np.cosh(2.0 * np.asarray(mu, dtype=float) + shift)

    if regime in _BOUNDED:
        r_max, tau_min = math.atanh(1.0 / math.sqrt(c1 + c2)), None
    else:  # the acosh argument rounds below 1 inside the threshold band
        arg = (0.5 + e * params.radius**2 / al) / c2
        r_max, tau_min = None, -0.5 * shift + 0.5 * math.acosh(max(arg, 1.0))
    chi_max = math.atan(1.0 / math.sqrt(-c1 + c2))
    return NegL2Trajectory(outer, inner, r_max, chi_max, tau_min, e, l_sq, beta, c1, c2)


def zero_l2_orbit(
    e: float, pphi: float, beta: float, params: ModelParams, corrected: bool = False
) -> Callable:
    """Orbit curve phi -> coth^2 r for the L^2 = 0 family (pphi != 0).

    coth^2 r = omega^2 R^2/(2E) + c (2 beta - tan phi / pphi)^2, with
    c = R sqrt(E) as printed; numerics match c = 2 E R^2 instead, so the
    corrected flag switches to that coefficient.
    """
    if e <= 0.0 or pphi == 0.0:
        raise ValueError("requires e > 0 and pphi != 0")
    c = 2.0 * e * params.radius**2 if corrected else params.radius * math.sqrt(e)
    base = params.omega**2 * params.radius**2 / (2.0 * e)

    def curve(phi):
        u = 2.0 * beta - np.tan(np.asarray(phi, dtype=float)) / pphi
        return base + c * u * u

    return curve


# ---------------------------------------------------------------------------
# canonical starts
# ---------------------------------------------------------------------------


def canonical_state(e: float, l_sq: float, params: ModelParams) -> PhaseState:
    """A phase-space point realizing (E, L^2), used when a run is specified
    by constants of motion rather than coordinates.

    Conventions: positive L^2 starts at pericenter in the equator plane
    (tau = 0, p_tau = 0, p_phi = sqrt(L^2)); L^2 = 0 starts at the apocenter
    (bounded) or the pole (unbounded) with purely radial momentum; negative
    L^2 starts at the outer apocenter (bounded) or the inner turning angle
    (unbounded) with p_tau or p_mu carrying sqrt(|L^2|).
    """
    regime = _regime_only(e, l_sq, params)
    if regime == RadialRegime.FORBIDDEN:
        em = eff_minimum(l_sq, params)
        if l_sq > 0.0 and em is not None and e < em[1]:
            raise ValueError(
                "energy below the minimum of the effective potential "
                "(omega sqrt(L^2) - L^2/(2 R^2)) -- no classical motion"
            )
        raise ValueError("no classical motion for this (e, l_sq)")
    R = params.radius
    R2 = R * R

    if l_sq > 0.0:
        x1, _ = radial_roots(e, l_sq, params)
        if regime == RadialRegime.CIRCULAR:
            r_start, _ = eff_minimum(l_sq, params)
        else:
            r_start = math.atanh(math.sqrt(x1))
        return PhaseState(
            ChartPoint(ChartId.OUTER_PLUS, r_start, 0.0, 0.0),
            0.0,
            0.0,
            math.sqrt(l_sq),
        )

    if l_sq == 0.0:
        if regime == RadialRegime.ZERO_L2_BOUNDED:
            w2r2 = params.omega**2 * R2
            s_max = 2.0 * e / (w2r2 - 2.0 * e)
            r_start = math.asinh(math.sqrt(s_max))
            return PhaseState(ChartPoint(ChartId.OUTER_PLUS, r_start, 0.0, 0.0), 0.0, 0.0, 0.0)
        pr = math.sqrt(2.0 * R2 * e)
        return PhaseState(ChartPoint(ChartId.OUTER_PLUS, 0.0, 0.0, 0.0), pr, 0.0, 0.0)

    # l_sq < 0
    if regime == RadialRegime.NEG_L2_BOUNDED:
        _, x2 = radial_roots(e, l_sq, params)
        r_start = math.atanh(math.sqrt(x2))
        return PhaseState(
            ChartPoint(ChartId.OUTER_PLUS, r_start, 0.0, 0.0),
            0.0,
            math.sqrt(-l_sq),
            0.0,
        )
    chi = inner_turning_angle(e, l_sq, params)
    return PhaseState(
        ChartPoint(ChartId.INNER_PLUS, chi, 0.0, 0.0), 0.0, math.sqrt(-l_sq), 0.0
    )


# ---------------------------------------------------------------------------
# flat-space contraction
# ---------------------------------------------------------------------------


def contraction_check(
    e: float, l_sq: float, radii, omega: float = 1.0, n_phi: int = 720
) -> ConvergenceReport:
    """Convergence of Beltrami orbits to the flat ellipse as R grows.

    The flat limit keeps (E, L^2, omega) fixed: R^2 p(R) -> p~ = L^2/E and
    eps(R) -> eps~ = sqrt(1 - omega^2 L^2/E^2); the report fits the log-log
    slope of the maximal radial deviation against R (expected about -2).
    """
    radii = tuple(float(r) for r in radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must increase")
    if l_sq <= 0.0:
        raise ValueError("flat contraction defined for l_sq > 0")
    if e <= omega * math.sqrt(l_sq):
        raise ValueError("flat ellipse needs E > omega sqrt(L^2)")
    p_flat = l_sq / e
    eps_flat = math.sqrt(1.0 - omega**2 * l_sq / (e * e))
    bf = p_flat / (1.0 + eps_flat)
    af = p_flat / (1.0 - eps_flat)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    c2, s2 = np.cos(phis) ** 2, np.sin(phis) ** 2
    rho_flat = 1.0 / np.sqrt(c2 / bf + s2 / af)

    devs = []
    p_scaled = []
    eps_vals = []
    for rad in radii:
        par = ModelParams(omega=omega, radius=rad)
        conic = orbit_conic(e, l_sq, par)
        # Beltrami radius of the curved orbit: rho^-2 = cos^2/(R^2 B^2) + sin^2/(R^2 A^2)
        rho = 1.0 / np.sqrt(c2 / (rad**2 * conic.b_sq) + s2 / (rad**2 * conic.a_sq))
        devs.append(float(np.max(np.abs(rho - rho_flat))))
        p_scaled.append(rad**2 * conic.p)
        eps_vals.append(conic.eps)
    slope = float(np.polyfit(np.log(radii), np.log(devs), 1)[0])
    return ConvergenceReport(
        radii, tuple(devs), slope, p_flat, eps_flat, tuple(p_scaled), tuple(eps_vals)
    )


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

FIGURE_IDS = tuple(f"fig{i}" for i in range(1, 10))

_UEFF_FAMILIES = {
    "fig1": (0.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0),
    "fig2": (2.0, 3.0, 4.0),
    "fig3": (-1.0, -2.0, -3.0),
}

_CONIC_FAMILIES = {
    "fig4": ((0.3, 0.3), (0.4, 0.3), (0.5, 0.3)),
    "fig5": ((0.2, 0.0), (0.5, 0.0), (0.8, 0.0)),
    "fig6": ((1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0 / 3.0), (8.0 / 9.0, 1.0 / 9.0)),
    "fig7": ((0.2, 0.8), (0.5, 0.8), (0.8, 0.8)),
}

_FIG8_ENERGIES = (-1.5, -0.5, 0.25, 0.5, 1.5)
_FIG9_ENERGIES = (0.2, 0.5, 0.8)

_CAPTIONS = {
    "fig1": "Effective radial potential for 0 <= L^2 < omega^2 R^4: "
    "centrifugal wall, interior minimum, saturation at omega^2 R^2 / 2.",
    "fig2": "Effective radial potential for L^2 >= omega^2 R^4: "
    "monotone repulsive profiles without an interior minimum.",
    "fig3": "Effective radial potential for L^2 < 0: bottomless attractive "
    "well reaching the degenerate cone.",
    "fig4": "Orbit conics in the Beltrami disk: ellipse family at fixed "
    "eccentricity inside the unit circle.",
    "fig5": "Orbit conics in the Beltrami disk: concentric circles "
    "(eps = 0, circular orbits).",
    "fig6": "Orbit conics in the Beltrami disk: equidistant curves with "
    "A^2 = 1 touching the absolute.",
    "fig7": "Orbit conics in the Beltrami disk: high-eccentricity "
    "ultraellipses crossing the unit circle.",
    "fig8": "Negative-L^2 orbit branches on the outer and inner charts "
    "across bound, threshold and escaping energies, with the "
    "one-sheeted carrier mesh.",
    "fig9": "Numerically integrated L^2 = 0 orbits with p_phi = 1 "
    "on the hyperbolic-cylinder carrier.",
}

N_ORBIT_SAMPLES = 720
_MESH_COLUMNS = ("u", "v", "z0", "z1", "z2", "z3")
_BRANCH_COLUMNS = ("arm", "q2", "z0", "z1", "z2", "z3")
_R_CAP = 4.0  # radial cap for unbounded curve sampling
_R_FLOOR = 0.05


def _dataset(out_dir: str, fname: str, names, table, **entry) -> dict:
    """Write one CSV dataset and return its manifest entry {"file": fname, **entry}.

    `table` is the columns under the header `names`, or the CSV text itself.
    """
    text = table if isinstance(table, str) else table_text(names, table)
    atomic_write_text(os.path.join(out_dir, fname), text)
    return {"file": fname, **entry}


def _figure(fig_id: str, datasets: list) -> dict:
    return {"figure": fig_id, "caption": _CAPTIONS[fig_id], "datasets": datasets}


def _mesh_columns(*sheets) -> list:
    """_MESH_COLUMNS of a carrier mesh: the grid indices and point(u, v) -> (z0..z3)
    at each node of each sheet (us, vs, point).  point takes floats through `math`,
    whose last bits the mesh files keep (numpy's differ)."""
    rows = [(i, j, *point(u, v))
            for us, vs, point in sheets for i, u in enumerate(us) for j, v in enumerate(vs)]
    return list(zip(*rows))


def _ueff_figure(fig_id: str, out_dir: str, params: ModelParams) -> dict:
    lsqs = _UEFF_FAMILIES[fig_id]
    r = np.linspace(_R_CAP / N_ORBIT_SAMPLES, _R_CAP, N_ORBIT_SAMPLES)
    names = ["r", *(f"u{i}" for i in range(len(lsqs)))]
    cols = [r, *(effective_potential(r, l, params) for l in lsqs)]
    return _figure(fig_id, [_dataset(
        out_dir, f"{fig_id}_ueff.csv", names, cols, kind="effective_potential",
        columns={f"u{i}": {"l_sq": l} for i, l in enumerate(lsqs)},
    )])


def _upper_sheet_mesh(params: ModelParams) -> str:
    """CSV text of the upper-sheet carrier mesh, the same for figs 4-7."""
    R = params.radius
    sheet = (np.linspace(0.0, 2.5, 36), np.linspace(0.0, 2.0 * math.pi, 73),
             lambda r, ph: (R * math.cosh(r), 0.0, R * math.sinh(r) * math.cos(ph),
                            R * math.sinh(r) * math.sin(ph)))
    return table_text(_MESH_COLUMNS, _mesh_columns(sheet))


def _conic_figure(fig_id: str, out_dir: str, params: ModelParams, carrier: str) -> dict:
    R = params.radius
    th2_cap = math.tanh(_R_CAP) ** 2
    datasets = []
    for p, eps in _CONIC_FAMILIES[fig_id]:
        b2 = p / (1.0 + eps)
        a2 = p / (1.0 - eps) if eps < 1.0 else math.inf
        if a2 <= th2_cap:
            phis = np.linspace(0.0, 2.0 * math.pi, N_ORBIT_SAMPLES, endpoint=False)
        else:
            # curve escapes to r = inf where cos^2/b2 + sin^2/a2 = 1
            q = (1.0 / th2_cap - 1.0 / a2) / (1.0 / b2 - 1.0 / a2)
            phi_e = math.acos(math.sqrt(q))
            phis = np.linspace(-phi_e, phi_e, N_ORBIT_SAMPLES)
        th2 = 1.0 / (np.cos(phis) ** 2 / b2 + np.sin(phis) ** 2 / a2)
        r = np.arctanh(np.sqrt(th2))
        z = _embed(True, 1.0, R, *_trig(True, r, 0.0, phis))
        datasets.append(_dataset(out_dir, f"{fig_id}_orbit_p{p:g}_eps{eps:g}.csv",
                                 ("phi", "z0", "z1", "z2", "z3"), [phis, *z],
                                 kind="orbit", params={"p": p, "eps": eps}))
    datasets.append(_dataset(out_dir, f"{fig_id}_carrier.csv", _MESH_COLUMNS, carrier,
                             kind="carrier", surface="TwoSheetedUpper", grid=[36, 73]))
    return _figure(fig_id, datasets)


def _fig8(out_dir: str, params: ModelParams) -> dict:
    R = params.radius
    datasets = []
    for e in _FIG8_ENERGIES:
        tr = trajectory_negative_l2(e, -1.0, 0.0, 0.0, params)
        # outer branch: sample tau where r stays within [floor, cap]
        c1, c2 = tr.c1, tr.c2
        tau_hi = 0.5 * math.acosh((1.0 / math.tanh(_R_FLOOR) ** 2 - c1) / c2)
        if tr.tau_min is None:
            taus = np.linspace(-tau_hi, tau_hi, N_ORBIT_SAMPLES)
            arms = np.zeros_like(taus)
        else:
            tau_lo = 0.5 * math.acosh(max((1.0 / math.tanh(_R_CAP) ** 2 - c1) / c2, 1.0))
            half_n = N_ORBIT_SAMPLES // 2
            arm = np.linspace(tau_lo, tau_hi, half_n)
            taus = np.concatenate([-arm[::-1], arm])
            arms = np.concatenate([-np.ones(half_n), np.ones(half_n)])
        r = np.arctanh(1.0 / np.sqrt(tr.outer(taus)))
        z = _embed(True, 1.0, R, *_trig(True, r, taus, 0.0))
        branch = {"e": e, "l_sq": -1.0, "beta": 0.0}
        datasets.append(_dataset(out_dir, f"fig8_outer_e{e:g}.csv", _BRANCH_COLUMNS,
                                 [arms, taus, *z], kind="orbit_outer", params=branch))
        # inner branch; z3 = rho sin 0 is -0.0 where mu < 0, so it is written as zeros
        mu_cap = 0.5 * math.acosh((1.0 / math.tan(_R_FLOOR) ** 2 + c1) / c2)
        mus = np.linspace(-mu_cap, mu_cap, N_ORBIT_SAMPLES)
        chi = np.arctan(1.0 / np.sqrt(tr.inner(mus)))
        z0, z1, z2, _ = _embed(False, 1.0, R, *_trig(False, chi, mus, 0.0))
        datasets.append(_dataset(out_dir, f"fig8_inner_e{e:g}.csv", _BRANCH_COLUMNS,
                                 [np.zeros_like(mus), mus, z0, z1, z2, np.zeros_like(z0)],
                                 kind="orbit_inner", params=branch))
    one_sheeted = (np.linspace(-2.5, 2.5, 41), np.linspace(0.0, 2.0 * math.pi, 73),
                   lambda s, a: (R * math.cosh(s) * math.cos(a), R * math.cosh(s) * math.sin(a),
                                 R * math.sinh(s), 0.0))
    datasets.append(_dataset(out_dir, "fig8_carrier.csv", _MESH_COLUMNS,
                             _mesh_columns(one_sheeted),
                             kind="carrier", surface="OneSheeted", grid=[41, 73]))
    return _figure("fig8", datasets)


def _fig9(out_dir: str, params: ModelParams) -> dict:
    """Numerically integrated L^2 = 0 orbits with p_phi = 1 (through the pole)."""
    from .dynamics import IntegrationConfig, integrate

    R = params.radius
    w2r2 = params.omega**2 * R * R
    datasets = []
    for e in _FIG9_ENERGIES:
        if e < 0.5 * w2r2:
            s_max = 2.0 * e / (w2r2 - 2.0 * e)
            r0 = math.asinh(math.sqrt(s_max))
            p1 = 0.0
            # spatial closure takes two radial periods (the period map is the
            # central inversion)
            window = 2.0 * period_formula(e, params)
        else:
            s_vis = 8.0
            r0 = math.asinh(math.sqrt(s_vis))
            th2 = s_vis / (1.0 + s_vis)
            p1 = -math.sqrt(2.0 * R * R * (e - 0.5 * w2r2 * th2))
            window = 2.0 * time_of_flight(0.0, r0, e, 0.0, params)
        st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, r0, 0.0, 0.0), p1, 1.0, 1.0)
        traj = integrate(st, params, IntegrationConfig(t_span=(0.0, window)))
        ts = np.linspace(0.0, window, N_ORBIT_SAMPLES)
        datasets.append(_dataset(
            out_dir, f"fig9_orbit_e{e:g}.csv", ("t", "z0", "z1", "z2", "z3"),
            [ts, *traj.ambient_points(ts)], kind="orbit_numeric",
            params={"e": e, "l_sq": 0.0, "pphi": 1.0, "window": window},
        ))
    # the two sheets z3 = +-z1 of the hyperbolic cylinder
    sig, hs = np.linspace(-2.5, 2.5, 41), np.linspace(-3.0, 3.0, 31)
    cylinder = _mesh_columns(
        (sig, hs, lambda s, h: (R * math.cosh(s), h, R * math.sinh(s), h)),
        (sig, hs, lambda s, h: (R * math.cosh(s), h, R * math.sinh(s), -h)),
    )
    datasets.append(_dataset(out_dir, "fig9_carrier.csv", _MESH_COLUMNS, cylinder,
                             kind="carrier", surface="HyperbolicCylinder", grid=[41, 31]))
    return _figure("fig9", datasets)


def export_figures(fig_ids, out_dir: str, params: Optional[ModelParams] = None) -> dict:
    """Write the data files for the requested figures plus a manifest.json."""
    params = params or ModelParams()
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    carrier = None  # upper-sheet mesh of figs 4-7, built on first use
    for fig_id in fig_ids:
        if fig_id not in FIGURE_IDS:
            raise ValueError(f"unknown figure id {fig_id!r}")
        if fig_id in _UEFF_FAMILIES:
            entries.append(_ueff_figure(fig_id, out_dir, params))
        elif fig_id in _CONIC_FAMILIES:
            carrier = carrier or _upper_sheet_mesh(params)
            entries.append(_conic_figure(fig_id, out_dir, params, carrier))
        elif fig_id == "fig8":
            entries.append(_fig8(out_dir, params))
        else:
            entries.append(_fig9(out_dir, params))
    manifest = {"figures": entries}
    atomic_write_text(
        os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2) + "\n"
    )
    return manifest
