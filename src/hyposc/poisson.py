"""Canonical Poisson brackets on the chart phase space, with algebra sweeps.

The bracket {f, g} = sum_i (df/dq_i dg/dp_i - dg/dq_i df/dp_i) is evaluated
with two independent derivative backends: forward-mode dual numbers (exact to
roundoff, the default) and 4th-order central finite differences.  Sweeps over
reproducible pseudo-random states machine-check the generator algebra and the
full quadratic algebra of the symmetry tensor, reporting per-relation maximum
residuals.  A sweep evaluates all its states in each kernel pass: the
generator sweep makes 3 dual passes over the six generators alone, the
tensor sweep 3 dual passes and 1 finite-difference pass per block of at most
`BLOCK` states over Lt1-Lt3 and D11-D33 alone.  One dual pass carries the
tangents of phi, p1, p2 and pphi together; it gives the same bits as one
pass per coordinate because no denominator depends on phi or the momenta
(see `_gradient_table`).  Derivatives are exact to roundoff either way.

Convention note: the sweep of the tensor algebra states its relations in the
angular-momentum sign convention fixed by L1 = +p_phi on the outer chart
(observables Lt1, Lt2, Lt3 = -l1, l2, -l3 relative to the ambient bilinears).
The generator sweep uses the ambient convention throughout.

A sweep returns a `BracketReport`: `table` renders it as text and `as_dict`
as the JSON object the command line writes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .duals import Dual
from .geometry import TWO_PI, ChartId, ChartPoint, ModelParams, PhaseState, lift_coords
# the single-state view, kept reachable here (bench/tracer.py wraps it)
from .geometry import momentum_lift  # noqa: F401
from .invariants import ambient_generators, df_components, invariant_coords

COORD_NAMES = ("q1", "q2", "phi", "p1", "p2", "pphi")
# Step factor for the 4th-order stencil, h = FD_STEP * max(1, |x|).  The
# eps^(1/5) heuristic puts the roundoff/truncation crossover near 7e-4 for
# O(1) functions; the quartic observables here grow like e^(4 q1) across the
# sampled range, which drags the optimum down.  2e-4 was tuned against the
# exact dual backend (worst cross-backend gap ~6e-8 over seeds and params).
FD_STEP = 2e-4
# (offset in units of h, weight over 12 h) of the 4th-order central stencil
FD_STENCIL = ((-2.0, 1.0), (-1.0, -8.0), (1.0, 8.0), (2.0, -1.0))
# states per finite-difference pass and per block of the relation pass; each
# operation acts on one state, so blocking changes no value
BLOCK = 512

DEFAULT_TOL = 1e-6
BACKEND_TOL = 1e-7
FITTED_TOL = 1e-9


# --------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class Observable:
    """A named real-valued function of (PhaseState, ModelParams).

    ``supports_duals`` declares that the evaluator tolerates dual-valued
    coordinates (everything built from the generic chart math does); plain
    float-only callables are differentiated by finite differences instead.
    """

    name: str
    evaluator: Callable[[PhaseState, ModelParams], float]
    supports_duals: bool = True

    def __call__(self, state: PhaseState, params: ModelParams):
        return self.evaluator(state, params)


def _scalars(state: PhaseState):
    pt = state.point
    return (pt.q1, pt.q2, pt.phi, state.p1, state.p2, state.pphi)


def _state_from(chart: ChartId, coords) -> PhaseState:
    return PhaseState(
        ChartPoint(chart, coords[0], coords[1], coords[2]),
        coords[3], coords[4], coords[5],
    )


def _library_values(chart: ChartId, coords, params: ModelParams) -> dict:
    """Every library observable from a single ambient lift.

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
    out.update(zip(("D11", "D12", "D13", "D22", "D23", "D33"), d))
    return out


def _generator_values(chart: ChartId, coords, params: ModelParams) -> dict:
    """The six so(2,2) generators alone, as `_library_values` computes them."""
    y = lift_coords(chart, coords, params.radius)
    return dict(zip(("N1", "N2", "N3", "L1", "L2", "L3"), ambient_generators(y[:4], y[4:])))


def _tensor_values(chart: ChartId, coords, params: ModelParams) -> dict:
    """Lt1-Lt3 and D11-D33 alone, as `_library_values` computes them."""
    y = lift_coords(chart, coords, params.radius)
    n1, n2, n3, l1, l2, l3 = ambient_generators(y[:4], y[4:])
    out = {"Lt1": -l1, "Lt2": l2, "Lt3": -l3}
    out.update(zip(("D11", "D12", "D13", "D22", "D23", "D33"),
                   df_components(y[:4], (n1, n2, n3), params)))
    return out


def _library_observable(name: str) -> Observable:
    def evaluator(state, params, _name=name):
        return _library_values(state.point.chart, _scalars(state), params)[_name]

    return Observable(name, evaluator)


def _coordinate_observable(idx: int, name: str) -> Observable:
    def evaluator(state, params, _i=idx):
        return _scalars(state)[_i]

    return Observable(name, evaluator)


_LIBRARY_KEYS = (
    "L1", "L2", "L3", "N1", "N2", "N3",
    "Lt1", "Lt2", "Lt3",
    "D11", "D12", "D13", "D22", "D23", "D33",
    "H_free", "H_osc", "L_sq",
)

LIBRARY = {k: _library_observable(k) for k in _LIBRARY_KEYS}
LIBRARY.update({n: _coordinate_observable(i, n) for i, n in enumerate(COORD_NAMES)})

L1, L2, L3 = LIBRARY["L1"], LIBRARY["L2"], LIBRARY["L3"]
N1, N2, N3 = LIBRARY["N1"], LIBRARY["N2"], LIBRARY["N3"]
LT1, LT2, LT3 = LIBRARY["Lt1"], LIBRARY["Lt2"], LIBRARY["Lt3"]
D11, D12, D13 = LIBRARY["D11"], LIBRARY["D12"], LIBRARY["D13"]
D22, D23, D33 = LIBRARY["D22"], LIBRARY["D23"], LIBRARY["D33"]
H_OSC, H_FREE, L_SQ = LIBRARY["H_osc"], LIBRARY["H_free"], LIBRARY["L_sq"]
Q1, Q2, PHI = LIBRARY["q1"], LIBRARY["q2"], LIBRARY["phi"]
P1, P2, PPHI = LIBRARY["p1"], LIBRARY["p2"], LIBRARY["pphi"]


# --------------------------------------------------------------------------
# derivative backends


def _gradient_table(values, coords, backend: str) -> dict:
    """d/d(q1, q2, phi, p1, p2, pphi) of every entry of ``values(coords)``.

    ``coords`` holds floats for one state or (N,) arrays for a batch of N
    states; each table entry then has shape (6,) or (6, N).

    The dual backend makes 3 passes: one carrying the tangents of phi, p1,
    p2 and pphi together as a (4,) + shape array (vector forward mode), then
    one each for q1 and q2 with tangent 1.0.  The wide pass runs first, before
    the table is allocated, which lowers the peak memory of large batches.
    In a pass, +, - and * with a zero tangent round as the plain operation
    does, up to the sign of a zero, but Dual/Dual division rounds unlike
    Dual/plain.  No denominator of the library (sinh r and cosh tau in the
    lift, z0^2 in D and the potential) depends on phi or the momenta, so
    every division of the wide pass takes the Dual/plain branch and the table
    holds the bits of one pass per coordinate, up to the sign of zeros.  (A
    dual's integer power is a repeated product, which a plain power may round
    otherwise; the library's powers are squares that feed sums only.)  The
    derivatives are exact either way.

    The finite-difference backend makes one pass per block of at most
    `BLOCK` states: every coordinate j is handed to ``values`` as a
    (len(FD_STENCIL), 6) + block shape array whose [k, i] entry belongs to
    the copy of the block with coordinate i moved to stencil point k.  A
    single state is the N = 1 case of the sweeps, carried as floats.
    """
    if backend not in ("dual", "fd"):
        raise ValueError(f"unknown backend {backend!r} (use 'auto', 'dual' or 'fd')")
    shape = np.shape(coords[0])
    if backend == "dual":
        # the wide pass's tangents are read-only views, immutable like 1.0
        eye = np.eye(4).reshape((4, 4) + (1,) * len(shape))
        wide = [(2 + j, np.broadcast_to(eye[j], (4,) + shape)) for j in range(4)]
        passes = ((slice(2, 6), wide), (0, [(0, 1.0)]), (1, [(1, 1.0)]))
        table = defaultdict(lambda: np.zeros((6,) + shape))
        for rows, tangents in passes:
            seeded = list(coords)
            for i, tangent in tangents:
                seeded[i] = Dual(coords[i], tangent)
            for name, v in values(seeded).items():
                table[name][rows] = v.im if isinstance(v, Dual) else 0.0
        return table
    if shape and shape[0] > BLOCK:
        blocks = [_gradient_table(values, [x[s:s + BLOCK] for x in coords], "fd")
                  for s in range(0, shape[0], BLOCK)]
        return {name: np.concatenate([b[name] for b in blocks], axis=-1) for name in blocks[0]}
    stencil = FD_STENCIL
    x = np.array(coords, dtype=float)
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    offsets = np.array([k for k, _ in stencil]).reshape((-1,) + (1,) * (x.ndim - 1))
    stacked = [np.broadcast_to(xj, (len(stencil), 6) + xj.shape).copy() for xj in x]
    for i, xi in enumerate(x):
        stacked[i][:, i] = xi + offsets * h[i]
    table = {}
    for name, v in values(stacked).items():
        total = 0.0
        for k, (_, weight) in enumerate(stencil):
            total = total + weight * v[k]
        table[name] = total / (12.0 * h)
    return table


def _symplectic_pair(gf, gg):
    """sum_i (gf[i] gg[3+i] - gg[i] gf[3+i]), summed left to right.

    Each component is read once, and an array sum is accumulated in place.
    """
    out = gf[0] * gg[3]
    out -= gg[0] * gf[3]
    out += gf[1] * gg[4]
    out -= gg[1] * gf[4]
    out += gf[2] * gg[5]
    out -= gg[2] * gf[5]
    return out


class _Rows:
    """Rows ``index`` of each component in ``comps``, gathered as they are read.

    Handed to `_symplectic_pair`, each gathered block lives only until its
    product is taken, which keeps the relation pass's memory small.
    """

    def __init__(self, comps, index):
        self.comps, self.index = comps, index

    def __getitem__(self, c):
        return self.comps[c][self.index]


def bracket(f: Observable, g: Observable, state: PhaseState, params: ModelParams,
            backend: str = "auto") -> float:
    """Canonical bracket {f, g} at one state."""
    chart = state.point.chart
    coords = [float(c) for c in _scalars(state)]
    grads = []
    for obs in (f, g):
        chosen = backend
        if backend == "auto":
            chosen = "dual" if obs.supports_duals else "fd"
        elif backend == "dual" and not obs.supports_duals:
            raise ValueError(f"observable {obs.name!r} does not support the dual backend")

        def values(c, _obs=obs):
            if not isinstance(c[0], np.ndarray):
                return {_obs.name: _obs.evaluator(_state_from(chart, c), params)}
            # stacked finite-difference states: one float evaluation each,
            # since the observable may accept floats only
            rows = np.stack(c, axis=-1).reshape(-1, 6).tolist()
            out = [_obs.evaluator(_state_from(chart, row), params) for row in rows]
            return {_obs.name: np.reshape(out, c[0].shape)}

        grads.append(_gradient_table(values, coords, chosen)[obs.name])
    val = float(_symplectic_pair(*grads))
    if not math.isfinite(val):
        raise ValueError(
            f"non-finite derivative in {{{f.name}, {g.name}}} (singular observable at state)"
        )
    return val


def jacobi_residual(f: Observable, g: Observable, h: Observable,
                    state: PhaseState, params: ModelParams) -> float:
    """|{f,{g,h}} + {g,{h,f}} + {h,{f,g}}| with finite-difference outer brackets."""

    def composite(a, b):
        def evaluator(st, par, _a=a, _b=b):
            return bracket(_a, _b, st, par, backend="dual")

        return Observable(f"{{{a.name},{b.name}}}", evaluator, supports_duals=False)

    return abs(
        bracket(f, composite(g, h), state, params, backend="fd")
        + bracket(g, composite(h, f), state, params, backend="fd")
        + bracket(h, composite(f, g), state, params, backend="fd")
    )


# --------------------------------------------------------------------------
# sampling


SAMPLE_CHART = ChartId.OUTER_PLUS


def sample_coords(n_points: int, seed: int = 42) -> np.ndarray:
    """(6, n_points) coordinates of `sample_states`, one state per column.

    Outer-chart states bounded away from chart singularities: r in
    [0.3, 2.0], tau in [-1.5, 1.5], phi in [0, 2pi) (reduced as ChartPoint
    reduces it), momenta in [-2, 2].
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.3, 2.0, n_points)
    tau = rng.uniform(-1.5, 1.5, n_points)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_points) % TWO_PI
    mom = rng.uniform(-2.0, 2.0, (n_points, 3))
    return np.vstack([r, tau, phi, mom.T])


def sample_states(n_points: int, seed: int = 42) -> list:
    """Reproducible outer-chart states, the columns of `sample_coords`."""
    return [
        PhaseState(ChartPoint(SAMPLE_CHART, q1, q2, phi), p1, p2, pphi)
        for q1, q2, phi, p1, p2, pphi in sample_coords(n_points, seed).T
    ]


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BracketCheck:
    lhs: str                 # e.g. "{L1, L2}"
    rhs: str                 # expected expression, e.g. "-L3"
    n_points: int
    max_residual: float
    passed: bool
    flagged: bool = False    # recorded but never gates the report
    backend_gap: Optional[float] = None
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "bracket": self.lhs,
            "expected": self.rhs,
            "n_points": self.n_points,
            "max_residual": self.max_residual,
            "passed": self.passed,
            "flagged": self.flagged,
        }
        if self.backend_gap is not None:
            out["backend_gap"] = self.backend_gap
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class BracketReport:
    label: str
    tolerance: float
    pairs: tuple
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.pairs if not c.flagged)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "notes": list(self.notes),
            "pairs": [c.as_dict() for c in self.pairs],
        }

    def table(self) -> str:
        width = max(len(c.lhs) for c in self.pairs) + 2
        rwidth = max(len(c.rhs) for c in self.pairs) + 2
        lines = [f"[{self.label}] tolerance {self.tolerance:g}"]
        for c in self.pairs:
            status = "flag" if c.flagged else ("ok" if c.passed else "FAIL")
            gap = f"  gap {c.backend_gap:9.2e}" if c.backend_gap is not None else ""
            lines.append(
                f"  {c.lhs:<{width}} -> {c.rhs:<{rwidth}} n={c.n_points:<5d}"
                f" resid {c.max_residual:9.2e}{gap}  {status}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _sweep(kernel, coords, params, relations, backends):
    """Max residual (first backend) and max cross-backend gap per relation.

    kernel: `_generator_values` or `_tensor_values`, whichever holds every
    observable the relations read.
    coords: (6, N) outer-chart coordinates, one state per column.
    relations: sequence of (a_name, b_name, rhs_fn) with rhs_fn(values,
    params) the expected bracket value, per state.  The gap of a state is
    |{a, b}_first - {a, b}_second| / max(1, |grad a| |grad b|): the bracket
    pairs the two gradients, so its finite-difference error scales with the
    product of their sizes.

    All relations are evaluated together, over blocks of at most `BLOCK`
    states: each backend's gradients are stacked component-major, as six
    (n_obs, N) arrays, and gathered per relation once per block.
    """

    def values(c):
        return kernel(SAMPLE_CHART, c, params)

    vals = values(coords)
    names = list(dict.fromkeys(n for a, b, _ in relations for n in (a, b)))
    ia = np.array([names.index(a) for a, _, _ in relations])
    ib = np.array([names.index(b) for _, b, _ in relations])
    rhs = np.empty((len(relations), coords.shape[1]))
    for j, (_, _, rhs_fn) in enumerate(relations):
        rhs[j] = rhs_fn(vals, params)
    grads = [np.stack([t[n] for n in names], axis=1)  # (6, n_obs, N)
             for t in (_gradient_table(values, coords, b) for b in backends)]
    res = np.zeros(len(relations))
    gap = np.zeros(len(relations))
    for start in range(0, coords.shape[1], BLOCK):
        comps = [g[:, :, start:start + BLOCK] for g in grads]
        lhs = [_symplectic_pair(_Rows(c, ia), _Rows(c, ib)) for c in comps]
        dev = lhs[0] - rhs[:, start:start + BLOCK]
        res = np.maximum(res, np.max(np.abs(dev, out=dev), axis=1))
        if len(lhs) > 1:
            norm = np.linalg.norm(comps[0], axis=0)  # (n_obs, block)
            dev = lhs[0] - lhs[1]
            dev = np.abs(dev, out=dev) / np.maximum(1.0, norm[ia] * norm[ib])
            gap = np.maximum(gap, np.max(dev, axis=1))
    return res, gap


# --------------------------------------------------------------------------
# generator algebra sweep

# {a, b} = coeff * target, in the ambient sign convention; the metric-weighted
# structure constants with gbar = diag(1, -1, -1) give exactly these signs.
_SO22_TABLE = (
    ("L1", "L2", -1.0, "L3"),
    ("L1", "L3", +1.0, "L2"),
    ("L2", "L3", +1.0, "L1"),
    ("N1", "N2", -1.0, "L3"),
    ("N1", "N3", +1.0, "L2"),
    ("N2", "N3", +1.0, "L1"),
    ("L1", "N1", 0.0, None),
    ("L2", "N2", 0.0, None),
    ("L3", "N3", 0.0, None),
    ("L1", "N2", -1.0, "N3"),
    ("L1", "N3", +1.0, "N2"),
    ("L2", "N1", +1.0, "N3"),
    ("L2", "N3", +1.0, "N1"),
    ("L3", "N1", -1.0, "N2"),
    ("L3", "N2", -1.0, "N1"),
)


def _coeff_name(coeff: float, target) -> str:
    if target is None or coeff == 0.0:
        return "0"
    sign = "-" if coeff < 0 else ""
    mag = abs(coeff)
    factor = "" if mag == 1.0 else f"{mag:g} "
    return f"{sign}{factor}{target}"


def verify_so22(params: Optional[ModelParams] = None, n_points: int = 1000,
                seed: int = 42, tol: float = DEFAULT_TOL,
                backend: str = "dual") -> BracketReport:
    """Check the 15 independent generator brackets at random states."""
    params = params or ModelParams()
    coords = sample_coords(n_points, seed)

    relations = []
    for a, b, coeff, target in _SO22_TABLE:
        if target is None:
            relations.append((a, b, lambda v, p: 0.0))
        else:
            relations.append((a, b, lambda v, p, c=coeff, t=target: c * v[t]))

    res, _ = _sweep(_generator_values, coords, params, relations, (backend,))
    checks = tuple(
        BracketCheck(
            lhs=f"{{{a}, {b}}}",
            rhs=_coeff_name(coeff, target),
            n_points=n_points,
            max_residual=float(res[j]),
            passed=bool(res[j] < tol),
        )
        for j, (a, b, coeff, target) in enumerate(_SO22_TABLE)
    )
    return BracketReport(label="so22", tolerance=tol, pairs=checks)


# --------------------------------------------------------------------------
# quadratic tensor algebra sweep
#
# All L's below are the Lt observables (L1 = +p_phi convention); display
# strings drop the 't' for readability and the report carries a note.

_DL_TABLE = (
    ("D12", "Lt1", "-D13", lambda v: -v["D13"]),
    ("D12", "Lt2", "-D23", lambda v: -v["D23"]),
    ("D12", "Lt3", "-D11 - D22", lambda v: -v["D11"] - v["D22"]),
    ("D13", "Lt1", "D12", lambda v: v["D12"]),
    ("D13", "Lt2", "-D11 - D33", lambda v: -v["D11"] - v["D33"]),
    ("D13", "Lt3", "-D23", lambda v: -v["D23"]),
    ("D23", "Lt1", "D22 - D33", lambda v: v["D22"] - v["D33"]),
    ("D23", "Lt2", "-D12", lambda v: -v["D12"]),
    ("D23", "Lt3", "-D13", lambda v: -v["D13"]),
    ("D11", "Lt2", "-2 D13", lambda v: -2.0 * v["D13"]),
    ("D11", "Lt3", "-2 D12", lambda v: -2.0 * v["D12"]),
    ("D22", "Lt1", "-2 D23", lambda v: -2.0 * v["D23"]),
    ("D22", "Lt3", "-2 D12", lambda v: -2.0 * v["D12"]),
    ("D33", "Lt1", "2 D23", lambda v: 2.0 * v["D23"]),
    ("D33", "Lt2", "-2 D13", lambda v: -2.0 * v["D13"]),
)

_DIAGONAL_ZEROS = (
    ("Lt1", "D11"),
    ("Lt2", "D22"),
    ("Lt3", "D33"),
)

# the 12 product-form relations that survive the numeric check as stated
_DD_TABLE = (
    ("D11", "D12", "2w^2 L3 + (2/R^2) L3 D11",
     lambda v, w2, iR2: 2.0 * w2 * v["Lt3"] + 2.0 * iR2 * v["Lt3"] * v["D11"]),
    ("D11", "D13", "2w^2 L2 + (2/R^2) L2 D11",
     lambda v, w2, iR2: 2.0 * w2 * v["Lt2"] + 2.0 * iR2 * v["Lt2"] * v["D11"]),
    ("D11", "D23", "(2/R^2)(L2 D12 + L3 D13)",
     lambda v, w2, iR2: 2.0 * iR2 * (v["Lt2"] * v["D12"] + v["Lt3"] * v["D13"])),
    ("D11", "D22", "(4/R^2) L3 D12",
     lambda v, w2, iR2: 4.0 * iR2 * v["Lt3"] * v["D12"]),
    ("D22", "D12", "2w^2 L3 - (2/R^2) L3 D22",
     lambda v, w2, iR2: 2.0 * w2 * v["Lt3"] - 2.0 * iR2 * v["Lt3"] * v["D22"]),
    ("D22", "D13", "-(2/R^2)(L3 D23 + L1 D12)",
     lambda v, w2, iR2: -2.0 * iR2 * (v["Lt3"] * v["D23"] + v["Lt1"] * v["D12"])),
    ("D22", "D23", "2w^2 L1 - (2/R^2) L1 D22",
     lambda v, w2, iR2: 2.0 * w2 * v["Lt1"] - 2.0 * iR2 * v["Lt1"] * v["D22"]),
    ("D22", "D33", "-(4/R^2) L1 D23",
     lambda v, w2, iR2: -4.0 * iR2 * v["Lt1"] * v["D23"]),
    ("D33", "D12", "-(2/R^2)(L2 D23 - L1 D13)",
     lambda v, w2, iR2: -2.0 * iR2 * (v["Lt2"] * v["D23"] - v["Lt1"] * v["D13"])),
    ("D33", "D13", "2w^2 L2 - (2/R^2) L2 D33",
     lambda v, w2, iR2: 2.0 * w2 * v["Lt2"] - 2.0 * iR2 * v["Lt2"] * v["D33"]),
    ("D33", "D23", "-2w^2 L1 + (2/R^2) L1 D33",
     lambda v, w2, iR2: -2.0 * w2 * v["Lt1"] + 2.0 * iR2 * v["Lt1"] * v["D33"]),
    ("D33", "D11", "-(4/R^2) L2 D13",
     lambda v, w2, iR2: -4.0 * iR2 * v["Lt2"] * v["D13"]),
)

# candidate coefficient forms rejected by the numeric bracket (the engine is
# ground truth); recorded with flagged=True so they never gate the report
_FLAGGED_TABLE = (
    ("D12", "D13", "-(2w^2 - 1/(4R^4)) L1 + (1/R^2)(L1 D11 + L2 D12 + L3 D13)",
     lambda v, w2, iR2:
     -(2.0 * w2 - 0.25 * iR2 * iR2) * v["Lt1"]
     + iR2 * (v["Lt1"] * v["D11"] + v["Lt2"] * v["D12"] + v["Lt3"] * v["D13"])),
    ("D12", "D23", "(2w^2 - 1/(4R^4)) L2 + (1/R^2)(L1 D12 + L2 D22 - L3 D23)",
     lambda v, w2, iR2:
     (2.0 * w2 - 0.25 * iR2 * iR2) * v["Lt2"]
     + iR2 * (v["Lt1"] * v["D12"] + v["Lt2"] * v["D22"] - v["Lt3"] * v["D23"])),
    ("D13", "D23", "-(2w^2 - 1/(4R^4)) L3 + (1/R^2)(-L1 D13 + L2 D23 - L3 D33)",
     lambda v, w2, iR2:
     -(2.0 * w2 - 0.25 * iR2 * iR2) * v["Lt3"]
     + iR2 * (-v["Lt1"] * v["D13"] + v["Lt2"] * v["D23"] - v["Lt3"] * v["D33"])),
)

# exact replacements, fitted against the numeric bracket (rational
# coefficients recovered by least squares, then asserted at FITTED_TOL)
_FITTED_TABLE = (
    ("D12", "D13", "-w^2 L1 - (2/R^2) L1 D11",
     lambda v, w2, iR2: -w2 * v["Lt1"] - 2.0 * iR2 * v["Lt1"] * v["D11"]),
    ("D12", "D23", "-w^2 L2 + (2/R^2) L2 D22",
     lambda v, w2, iR2: -w2 * v["Lt2"] + 2.0 * iR2 * v["Lt2"] * v["D22"]),
    ("D13", "D23", "-w^2 L3 + (2/R^2) L3 D33",
     lambda v, w2, iR2: -w2 * v["Lt3"] + 2.0 * iR2 * v["Lt3"] * v["D33"]),
)

_CONVENTION_NOTE = (
    "L1, L2, L3 in this report use the sign convention fixed by "
    "L1 = +p_phi on the outer chart"
)
_FLAG_NOTE = (
    "flagged rows state candidate coefficient forms rejected by the "
    "numeric bracket; the fitted rows below them are the verified forms"
)


def verify_df_algebra(params: Optional[ModelParams] = None, n_points: int = 64,
                      seed: int = 42, tol: float = DEFAULT_TOL,
                      backend_tol: float = BACKEND_TOL,
                      fitted_tol: float = FITTED_TOL) -> BracketReport:
    """Sweep the tensor-generator and tensor-tensor bracket relations.

    Every relation is evaluated with both derivative backends; a relation
    passes when the dual-backend residual is below ``tol`` (``fitted_tol``
    for the fitted coefficient rows) and the backends agree to
    ``backend_tol`` relative to max(1, |grad a| |grad b|) at every state
    (``backend_gap`` reports that relative gap).  The three flagged rows record how far the rejected
    coefficient forms sit from the numeric bracket without gating the result.
    """
    params = params or ModelParams()
    coords = sample_coords(n_points, seed)
    w2 = params.omega**2
    iR2 = 1.0 / params.radius**2

    rows = []       # (a, b, rhs_name, rhs_fn(values), tol, flagged, note)
    for a, b, name, fn in _DL_TABLE:
        rows.append((a, b, name, (lambda v, p, f=fn: f(v)), tol, False, ""))
    for a, b in _DIAGONAL_ZEROS:
        rows.append((a, b, "0", (lambda v, p: 0.0), tol, False, ""))
    for a, b, name, fn in _DD_TABLE:
        rows.append((a, b, name, (lambda v, p, f=fn: f(v, w2, iR2)), tol, False, ""))
    for a, b, name, fn in _FLAGGED_TABLE:
        rows.append((a, b, name, (lambda v, p, f=fn: f(v, w2, iR2)), tol, True,
                     "candidate form rejected; numeric bracket is ground truth"))
    for a, b, name, fn in _FITTED_TABLE:
        rows.append((a, b, name, (lambda v, p, f=fn: f(v, w2, iR2)), fitted_tol, False,
                     "fitted coefficients"))

    relations = [(a, b, fn) for a, b, _, fn, _, _, _ in rows]
    res, gap = _sweep(_tensor_values, coords, params, relations, ("dual", "fd"))

    checks = []
    for j, (a, b, name, _, row_tol, flagged, note) in enumerate(rows):
        ok = bool(res[j] < row_tol) and bool(gap[j] < backend_tol)
        checks.append(BracketCheck(
            lhs=f"{{{a.replace('Lt', 'L')}, {b.replace('Lt', 'L')}}}",
            rhs=name,
            n_points=n_points,
            max_residual=float(res[j]),
            passed=ok,
            flagged=flagged,
            backend_gap=float(gap[j]),
            note=note,
        ))
    return BracketReport(
        label="df_algebra",
        tolerance=tol,
        pairs=tuple(checks),
        notes=(_CONVENTION_NOTE, _FLAG_NOTE),
    )
