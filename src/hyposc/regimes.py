"""Closed-form regime analysis of the oscillator, on the standard library alone.

Radial motion separates in X = tanh^2 r: the turning values x1 <= x2 are the
roots of omega^2 R^4 X^2 - (2R^2 E + L^2) X + L^2 = 0.  From them and the
energy band E < omega^2 R^2 / 2, `classify` sorts (E, L^2) into a radial
regime, a Beltrami conic (for L^2 > 0), turning radii, the radial period
and the carrier surface: bounded ellipses and circles, unbounded
ultraellipses and equidistant curves, and the L^2 <= 0 families.

This module imports no numpy, so `hyposc classify` starts without it;
`geometry` and `orbits` re-export its names.  It keeps `math` for every
transcendental function, whose results numpy does not reproduce bit for bit.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

CLASS_BAND = 1e-12  # relative band for threshold equality tests


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


class RadialRegime(Enum):
    BOUNDED_GENERIC = "BoundedGeneric"
    CIRCULAR = "Circular"
    UNBOUNDED_GENERIC = "UnboundedGeneric"
    THRESHOLD = "Threshold"
    REPULSIVE_L2 = "RepulsiveL2"
    NEG_L2_BOUNDED = "NegL2Bounded"
    NEG_L2_UNBOUNDED = "NegL2Unbounded"
    ZERO_L2_BOUNDED = "ZeroL2Bounded"
    ZERO_L2_UNBOUNDED = "ZeroL2Unbounded"
    FORBIDDEN = "Forbidden"


class ConicKind(Enum):
    ELLIPSE = "Ellipse"
    CIRCLE = "Circle"
    ULTRAELLIPSE = "Ultraellipse"
    EQUIDISTANT = "Equidistant"


class Carrier(Enum):
    TWO_SHEETED_UPPER = "TwoSheetedUpper"
    TWO_SHEETED_LOWER = "TwoSheetedLower"
    ONE_SHEETED = "OneSheeted"
    HYPERBOLIC_CYLINDER = "HyperbolicCylinder"


@dataclass(frozen=True)
class ConicParams:
    p: float
    eps: float
    a_sq: float
    b_sq: float
    kind: ConicKind


@dataclass(frozen=True)
class OrbitClassification:
    regime: RadialRegime
    conic: Optional[ConicParams]
    r_min: Optional[float]
    r_max: Optional[float]
    period: Optional[float]
    carrier: Carrier


# ---------------------------------------------------------------------------
# turning structure
# ---------------------------------------------------------------------------


def eff_minimum(l_sq: float, params: ModelParams):
    """Interior minimum (r0, e_min), existing iff 0 <= l_sq < omega^2 R^4.

    r0 = atanh((L^2/omega^2 R^4)^{1/4}), e_min = omega sqrt(L^2) - L^2/(2R^2).
    """
    w2r4 = params.omega**2 * params.radius**4
    if l_sq < 0.0 or l_sq >= w2r4:
        return None
    if l_sq == 0.0:
        return (0.0, 0.0)
    r0 = math.atanh((l_sq / w2r4) ** 0.25)
    e_min = params.omega * math.sqrt(l_sq) - l_sq / (2.0 * params.radius**2)
    return (r0, e_min)


def radial_roots(e: float, l_sq: float, params: ModelParams):
    """Roots (x1 <= x2) of the turning quadratic in X = tanh^2 r, which follow the
    regime like every `classify` field: a double root when it is Circular or the
    discriminant is negative (zero-L^2 band); only a Forbidden regime raises there."""
    regime = _regime_only(e, l_sq, params)
    w2r4 = params.omega**2 * params.radius**4
    if w2r4 == 0.0:
        # omega = 0, or omega^2 R^4 below the smallest float: the quadratic
        # has lost its leading term
        raise ValueError(f"no turning structure: omega^2 R^4 = 0 at omega = "
                         f"{params.omega:g}, R = {params.radius:g}")
    b = 2.0 * params.radius**2 * e + l_sq
    disc = b * b - 4.0 * l_sq * w2r4
    if disc < 0.0 and regime == RadialRegime.FORBIDDEN:
        raise ValueError("no real turning structure: energy below the potential minimum")
    root = 0.0 if regime == RadialRegime.CIRCULAR else math.sqrt(max(disc, 0.0))
    return ((b - root) / (2.0 * w2r4), (b + root) / (2.0 * w2r4))


def period_formula(e: float, params: ModelParams) -> float:
    """Radial period of bounded motion, T = pi / (omega sqrt(1 - 2E/omega^2R^2))."""
    w2r2 = params.omega**2 * params.radius**2
    return math.pi / (params.omega * math.sqrt(1.0 - 2.0 * e / w2r2))


_BOUNDED = (
    RadialRegime.BOUNDED_GENERIC,
    RadialRegime.CIRCULAR,
    RadialRegime.NEG_L2_BOUNDED,
    RadialRegime.ZERO_L2_BOUNDED,
)


def turning_radii(e: float, l_sq: float, params: ModelParams):
    """(r_min, r_max) by the regime; entries are None when absent.

    r_min is 0.0 in the zero-L^2 band (the orbit passes the pole) and None
    for L^2 < 0 (the orbit crosses the cone into the inner chart; see
    inner_turning_angle).  Only bounded regimes have an r_max.
    """
    regime = _regime_only(e, l_sq, params)
    if regime == RadialRegime.FORBIDDEN:
        return (None, None)
    x1, x2 = radial_roots(e, l_sq, params)
    if regime in (RadialRegime.ZERO_L2_BOUNDED, RadialRegime.ZERO_L2_UNBOUNDED):
        r_min = 0.0
    elif regime in (RadialRegime.NEG_L2_BOUNDED, RadialRegime.NEG_L2_UNBOUNDED):
        r_min = None
    else:
        r_min = math.atanh(math.sqrt(min(x1, 1.0)))
    r_max = math.atanh(math.sqrt(x2)) if regime in _BOUNDED else None
    return (r_min, r_max)


def inner_turning_angle(e: float, l_sq: float, params: ModelParams) -> float:
    """chi_max of the inner-chart excursion for l_sq < 0: cot^2 chi_max = -1/x1."""
    if l_sq >= 0.0:
        raise ValueError("inner excursion exists only for l_sq < 0")
    x1, _ = radial_roots(e, l_sq, params)
    return math.atan(math.sqrt(-x1))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _l2_sign(l_sq: float, w2r4: float) -> int:
    """-1, 0 or +1: the sign of L^2, zero inside its classification band."""
    bl = CLASS_BAND * max(1.0, abs(l_sq), w2r4)
    return int(l_sq > bl) - int(l_sq < -bl)


def _energy_band(e: float, half: float) -> float:
    """Half-width of the band within which E counts as equal to omega^2 R^2 / 2 = half."""
    return CLASS_BAND * max(1.0, abs(e), half)


def _regime_only(e: float, l_sq: float, params: ModelParams) -> RadialRegime:
    try:
        w2r2 = params.omega**2 * params.radius**2
        w2r4 = params.omega**2 * params.radius**4
    except OverflowError:  # a float power raises where a product gives inf
        raise ValueError(f"no turning structure: omega^2 R^4 overflows at omega = "
                         f"{params.omega:g}, R = {params.radius:g}") from None
    half = 0.5 * w2r2
    be = _energy_band(e, half)
    l2_sign = _l2_sign(l_sq, w2r4)

    if l2_sign < 0:
        return (
            RadialRegime.NEG_L2_BOUNDED
            if e < half - be
            else RadialRegime.NEG_L2_UNBOUNDED
        )
    if l2_sign == 0:
        if e <= be:
            return RadialRegime.FORBIDDEN
        return (
            RadialRegime.ZERO_L2_BOUNDED if e < half - be else RadialRegime.ZERO_L2_UNBOUNDED
        )
    if l_sq < w2r4 * (1.0 - CLASS_BAND):
        _, e_min = eff_minimum(l_sq, params)
        if e < e_min - be:
            return RadialRegime.FORBIDDEN
        if abs(e - e_min) <= be:
            return RadialRegime.CIRCULAR
        if e < half - be:
            return RadialRegime.BOUNDED_GENERIC
        if abs(e - half) <= be:
            return RadialRegime.THRESHOLD
        return RadialRegime.UNBOUNDED_GENERIC
    # repulsive branch: U_eff decreases monotonically to omega^2 R^2 / 2
    return RadialRegime.REPULSIVE_L2 if e > half + be else RadialRegime.FORBIDDEN


def classify(e: float, l_sq: float, params: ModelParams) -> OrbitClassification:
    """Total classification of (E, L^2) into regime, conic, radii, period, carrier."""
    regime = _regime_only(e, l_sq, params)
    # the regime's band, w2r4 finite there; carriers indexed by the sign 0, +1, -1
    sign = _l2_sign(l_sq, params.omega**2 * params.radius**4)
    carrier = (Carrier.HYPERBOLIC_CYLINDER, Carrier.TWO_SHEETED_UPPER, Carrier.ONE_SHEETED)[sign]

    if regime == RadialRegime.FORBIDDEN:
        return OrbitClassification(regime, None, None, None, None, carrier)

    conic = orbit_conic(e, l_sq, params) if sign > 0 else None
    r_min, r_max = turning_radii(e, l_sq, params)
    period = period_formula(e, params) if regime in _BOUNDED else None
    return OrbitClassification(regime, conic, r_min, r_max, period, carrier)


# ---------------------------------------------------------------------------
# conics
# ---------------------------------------------------------------------------


_CONIC_KINDS = {
    RadialRegime.CIRCULAR: ConicKind.CIRCLE,
    RadialRegime.BOUNDED_GENERIC: ConicKind.ELLIPSE,
    RadialRegime.ZERO_L2_BOUNDED: ConicKind.ELLIPSE,
    RadialRegime.THRESHOLD: ConicKind.EQUIDISTANT,
    RadialRegime.UNBOUNDED_GENERIC: ConicKind.ULTRAELLIPSE,
    RadialRegime.REPULSIVE_L2: ConicKind.ULTRAELLIPSE,
    RadialRegime.ZERO_L2_UNBOUNDED: ConicKind.ULTRAELLIPSE,
}


def orbit_conic(e: float, l_sq: float, params: ModelParams) -> ConicParams:
    """Conic data of the Beltrami-coordinate orbit for l_sq > 0.

    p = 2L^2/(2ER^2 + L^2), eps = sqrt(1 - 4 omega^2 R^4 L^2/(2ER^2+L^2)^2);
    the semi-axes B^2 = p/(1+eps), A^2 = p/(1-eps) coincide with the turning
    roots x1, x2, so B^2 A^2 = L^2/(omega^2 R^4).  Like every `classify`
    field the kind follows the regime (_CONIC_KINDS), and a Circle has eps = 0.
    """
    if l_sq <= 0.0:
        raise ValueError("conic form requires l_sq > 0")
    kind = _CONIC_KINDS.get(_regime_only(e, l_sq, params))
    if kind is None:
        raise ValueError("energy below the effective potential: no classical motion")
    b = 2.0 * params.radius**2 * e + l_sq
    p = 2.0 * l_sq / b
    if kind == ConicKind.CIRCLE:
        return ConicParams(p, 0.0, p, p, kind)
    arg = 1.0 - 4.0 * params.omega**2 * params.radius**4 * l_sq / (b * b)
    eps = math.sqrt(max(arg, 0.0))
    a_sq = p / (1.0 - eps) if eps < 1.0 else math.inf
    return ConicParams(p, eps, a_sq, p / (1.0 + eps), kind)
