"""Reference implementations the product is checked against.

Product code never imports this module.  It holds second routes beside the
product kernels, and maps no command uses:

- `generators`: the so(2,2) generators in closed chart form, beside
  `invariants.ambient_generators`;
- `_library_values` and `bracket`: every named observable from one lift,
  and the canonical bracket of two of them at one state, the N = 1 case of
  the sweeps' gradient table;
- `fd_table` and `backend_gap`: 4th-order central finite differences beside
  the product's dual gradient table, and the relative gap between the
  brackets of the two per relation of a sweep;
- `beltrami`: the projective coordinates x_i = R z_i / z0;
- an exact-arithmetic oracle for the bracket algebra: `Exact` carries a
  `Fraction` value and its 8 partials in (z0..z3, p0..p3) through the
  product's own `ambient_generators` and `df_components`, on rational
  states exactly on the shell (`shell_state`), with the ambient canonical
  bracket {z_a, p_b} = delta_ab (`exact_bracket`) and exact Gaussian
  elimination for ranks (`exact_rank`).  It does not reach `lift_coords`,
  the chart-to-ambient map, whose derivatives only `backend_gap` covers.
"""

import math
import random
from fractions import Fraction

import numpy as np

from hyposc import poisson
from hyposc.geometry import EmbeddingPoint, ModelParams, PhaseState, lift_coords, momentum_lift
from hyposc.invariants import (
    GeneratorSet,
    _zp,
    ambient_generators,
    df_components,
    invariant_coords,
)
from hyposc.regimes import ChartId

COORD_NAMES = ("q1", "q2", "phi", "p1", "p2", "pphi")
D_NAMES = ("D11", "D12", "D13", "D22", "D23", "D33")
# the rows of verify_df_algebra that gate its report
DF_REGULAR_ROWS = poisson._DL_TABLE + poisson._DD_TABLE + poisson._FITTED_TABLE

# Step factor for the 4th-order stencil, h = FD_STEP * max(1, |x|).  The
# eps^(1/5) heuristic puts the roundoff/truncation crossover near 7e-4 for
# O(1) functions; the quartic observables here grow like e^(4 q1) across the
# sampled range, which drags the optimum down.  2e-4 was tuned against the
# exact dual derivatives (worst absolute gap ~6e-8 over seeds and params).
FD_STEP = 2e-4
# (offset in units of h, weight over 12 h) of the 4th-order central stencil
FD_STENCIL = ((-2.0, 1.0), (-1.0, -8.0), (1.0, 8.0), (2.0, -1.0))


# ---------------------------------------------------------------------------
# closed chart forms and the projective map


def generators(state: PhaseState, params: ModelParams) -> GeneratorSet:
    """Generators from chart data.

    Outer charts use the closed pseudo-spherical expressions (an independent
    code path from the ambient bilinears; the two agree to rounding).  Inner
    charts go through the momentum lift, whose ambient form is chart-agnostic.
    """
    pt = state.point
    if not pt.chart.is_outer:
        return GeneratorSet(*ambient_generators(*_zp(momentum_lift(state, params))))
    s = pt.chart.sheet_sign
    p1, p2, pphi = state.p1, state.p2, state.pphi
    sht, cht = math.sinh(pt.q2), math.cosh(pt.q2)
    cp, sp = math.cos(pt.phi), math.sin(pt.phi)
    tht = sht / cht
    n1 = -sht * p1
    n2 = -cht * cp * p1
    n3 = -cht * sp * p1
    if p2 != 0.0 or pphi != 0.0:
        sh, ch = math.sinh(pt.q1), math.cosh(pt.q1)
        if sh == 0.0:
            raise ValueError("angular momenta at r = 0")
        cothr = ch / sh
        n1 = n1 + cht * cothr * p2
        n2 = n2 + cothr * sht * cp * p2 + cothr * sp * pphi / cht
        n3 = n3 + cothr * sht * sp * p2 - cothr * cp * pphi / cht
    return GeneratorSet(
        n1=s * n1,
        n2=s * n2,
        n3=s * n3,
        l1=-pphi,
        l2=-sp * p2 - tht * cp * pphi,
        l3=cp * p2 - tht * sp * pphi,
    )


def beltrami(z: EmbeddingPoint, params: ModelParams):
    """Projective coordinates x_i = R z_i / z0 (conics become plane quadrics)."""
    if z.z0 == 0.0:
        raise ValueError("Beltrami projection undefined at z0 = 0")
    k = params.radius / z.z0
    return (k * z.z1, k * z.z2, k * z.z3)


# ---------------------------------------------------------------------------
# brackets by name


def _library_values(chart: ChartId, coords, params: ModelParams) -> dict:
    """Every named observable, the coordinates included, from one ambient lift.

    ``coords`` = (q1, q2, phi, p1, p2, pphi), floats or (N,) arrays with one
    entry per state, any of them possibly dual.
    """
    y = lift_coords(chart, coords, params.radius)
    h_osc, h_free, g, d = invariant_coords(y[:4], y[4:], params)
    out = {
        "L1": g.l1, "L2": g.l2, "L3": g.l3,
        "N1": g.n1, "N2": g.n2, "N3": g.n3,
        "Lt1": -g.l1, "Lt2": g.l2, "Lt3": -g.l3,
        "H_free": h_free, "H_osc": h_osc,
        "L_sq": g.l_squared(),
    }
    out.update(zip(D_NAMES, d))
    out.update(zip(COORD_NAMES, coords))
    return out


def fd_table(values, coords) -> dict:
    """`poisson._gradient_table` by finite differences, one pass per
    coordinate and stencil point.

    A single state runs as a batch of one, so its rows hold the bits of the
    matching column of a batched table.
    """
    shape = np.shape(coords[0])
    coords = [np.reshape(np.asarray(x, dtype=float), shape or (1,)) for x in coords]
    table = {}
    for i, x in enumerate(coords):
        seeded = list(coords)
        h = FD_STEP * np.maximum(1.0, np.abs(x))
        sums = {}
        for k, weight in FD_STENCIL:
            seeded[i] = x + k * h
            for name, v in values(seeded).items():
                sums[name] = sums.get(name, 0.0) + weight * v
        for name, total in sums.items():
            table.setdefault(name, np.zeros((6,) + shape))[i] = np.reshape(total / (12.0 * h), shape)
    return table


def backend_gap(kernel, coords, params: ModelParams, rows) -> np.ndarray:
    """Per relation row of a sweep, the max over states of
    |{a, b}_dual - {a, b}_fd| / max(1, |grad a| |grad b|).

    The arguments are those of `poisson._sweep`.  The bracket pairs the two
    gradients, so its finite-difference error scales with the product of
    their sizes.
    """

    def values(c):
        return kernel(poisson.SAMPLE_CHART, c, params)

    dual = poisson._gradient_table(values, coords)
    fd = fd_table(values, coords)
    gap = np.zeros(len(rows))
    for j, (a, b, _, _) in enumerate(rows):
        dev = poisson._symplectic_pair(dual[a], dual[b]) - poisson._symplectic_pair(fd[a], fd[b])
        size = np.linalg.norm(dual[a], axis=0) * np.linalg.norm(dual[b], axis=0)
        gap[j] = np.max(np.abs(dev) / np.maximum(1.0, size))
    return gap


# the gradient tables by backend name
GRADIENT_TABLES = {"dual": poisson._gradient_table, "fd": fd_table}


def bracket(f: str, g: str, state: PhaseState, params: ModelParams,
            backend: str = "dual") -> float:
    """Canonical bracket {f, g} of two `_library_values` names at one state.

    The N = 1 case of the sweeps: one gradient table over `_library_values`,
    by dual numbers or, with backend="fd", by `fd_table`, its rows f and g
    paired by `poisson._symplectic_pair`.
    """
    pt = state.point
    coords = [float(c) for c in (pt.q1, pt.q2, pt.phi, state.p1, state.p2, state.pphi)]
    table = GRADIENT_TABLES[backend](lambda c: _library_values(pt.chart, c, params), coords)
    for name in (f, g):
        if name not in table:
            raise ValueError(f"unknown observable {name!r} (known: {', '.join(table)})")
    val = float(poisson._symplectic_pair(table[f], table[g]))
    if not math.isfinite(val):
        raise ValueError(f"non-finite derivative in {{{f}, {g}}} (singular observable at state)")
    return val


# ---------------------------------------------------------------------------
# exact arithmetic


class Exact:
    """A `Fraction` value and its partials in (z0..z3, p0..p3), forward mode.

    Float operands are converted exactly, with `Fraction(x)`.
    """

    __slots__ = ("v", "d")

    def __init__(self, v, d=(0,) * 8):
        self.v = Fraction(v)
        self.d = tuple(d)

    def __add__(self, other):
        o = _exact(other)
        return Exact(self.v + o.v, (a + b for a, b in zip(self.d, o.d)))

    def __sub__(self, other):
        o = _exact(other)
        return Exact(self.v - o.v, (a - b for a, b in zip(self.d, o.d)))

    def __mul__(self, other):
        o = _exact(other)
        return Exact(self.v * o.v, (self.v * b + o.v * a for a, b in zip(self.d, o.d)))

    def __truediv__(self, other):
        o = _exact(other)
        q = self.v / o.v
        return Exact(q, ((a - q * b) / o.v for a, b in zip(self.d, o.d)))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exact powers are integer-only")
        return Exact(self.v**n, (n * self.v ** (n - 1) * a for a in self.d))

    def __neg__(self):
        return Exact(-self.v, (-a for a in self.d))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _exact(other) - self

    def __rtruediv__(self, other):
        return _exact(other) / self

    def __eq__(self, other):  # duals.guarded compares against 0.0
        return self.v == other


def _exact(x) -> Exact:
    return x if isinstance(x, Exact) else Exact(x)


def exact_values(z, p, params: ModelParams) -> dict:
    """The six generators, Lt1-Lt3 and D11-D33 by the product's kernels."""
    gens = ambient_generators(z, p)
    n1, n2, n3, l1, l2, l3 = gens
    out = dict(zip(("N1", "N2", "N3", "L1", "L2", "L3"), gens))
    out.update(Lt1=-l1, Lt2=l2, Lt3=-l3)
    out.update(zip(D_NAMES, df_components(z, (n1, n2, n3), params)))
    return out


def exact_bracket(f: Exact, g: Exact) -> Fraction:
    """Ambient canonical bracket sum_a (df/dz_a dg/dp_a - df/dp_a dg/dz_a)."""
    return sum(f.d[a] * g.d[4 + a] - f.d[4 + a] * g.d[a] for a in range(4))


def _hyperbola(c: Fraction, t: Fraction):
    """(x, y) with x^2 - y^2 = c."""
    return (c / t + t) / 2, (c / t - t) / 2


def shell_state(rng: random.Random, radius: float):
    """Rational (z, p) with z0^2 + z1^2 - z2^2 - z3^2 = R^2 and z.p = 0, exactly,
    each component an `Exact` seeded with its own unit partial."""

    def ratio():
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))

    R = Fraction(radius)
    c1 = R * R * Fraction(rng.randint(1, 15), 8)
    z0, z2 = _hyperbola(c1, R * ratio())
    z1, z3 = _hyperbola(R * R - c1, R * ratio())
    z = (z0, z1, z2, z3)
    p = [ratio() for _ in range(4)]
    k = sum(a * b for a, b in zip(z, p)) / sum(a * a for a in z)
    p = [b - k * a for a, b in zip(z, p)]
    return [Exact(x, (int(i == j) for j in range(8))) for i, x in enumerate(z + tuple(p))]


def exact_rank(rows) -> int:
    """Rank of a list of equal-length Fraction rows, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            k = rows[i][col] / rows[rank][col]
            rows[i] = [a - k * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank
