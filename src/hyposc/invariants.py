"""Conserved quantities and the algebraic identities relating them.

The so(2,2) generators split into boost-type N_i and rotation-type L_i; in
ambient covariant form

    L1 = -(z2 p3 - z3 p2),   L2 = -(z1 p3 + z3 p1),   L3 = z1 p2 + z2 p1,
    N1 = z0 p1 - z1 p0,      N2 = -(z0 p2 + z2 p0),   N3 = -(z0 p3 + z3 p0).

Their Casimirs (signature gbar = diag(1, -1, -1) on the 3-vector indices):

    C1 = N1 L1 - N2 L2 - N3 L3           (identically zero on-shell)
    C2 = N.N + L.L = N1^2 - N2^2 - N3^2 + L1^2 - L2^2 - L3^2
       = -2 R^2 H_free.

The Demkov-Fradkin tensor D_ik = N_i N_k / R^2 + omega^2 R^2 z_i z_k / z0^2
collects the oscillator's hidden symmetry; its trace identity

    H_osc = (-D11 + D22 + D33)/2 - L^2/(2 R^2)

and the weighted contraction sum_i gbar_ii L_i D_ik = 0 are checked here.

All of it is computed by one array kernel (`ambient_generators`,
`df_components`, `invariant_coords`, `identity_residuals`) whose arguments
may be floats, (N,) arrays with one entry per state, or duals.
`report_identities` turns its residuals into the `verify identities` report,
`evaluate_invariants` is its single-state view, `check_identities` returns
that report at one state, and `l_squared` is the closed chart form of L^2.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .duals import guarded
from .geometry import EmbeddingPhase, ModelParams, PhaseState

GBAR = (1.0, -1.0, -1.0)  # so(2,1) index metric for N, L 3-vectors


@dataclass(frozen=True)
class GeneratorSet:
    n1: float
    n2: float
    n3: float
    l1: float
    l2: float
    l3: float

    def casimir1(self) -> float:
        return self.n1 * self.l1 - self.n2 * self.l2 - self.n3 * self.l3

    def casimir2(self) -> float:
        n_sq = self.n1**2 - self.n2**2 - self.n3**2
        return n_sq + self.l_squared()

    def l_squared(self) -> float:
        return self.l1**2 - self.l2**2 - self.l3**2

    @property
    def n(self):
        return (self.n1, self.n2, self.n3)

    @property
    def l(self):
        return (self.l1, self.l2, self.l3)


def _zp(ph: EmbeddingPhase):
    z = ph.z
    return (z.z0, z.z1, z.z2, z.z3), (ph.p0, ph.p1, ph.p2, ph.p3)


def ambient_generators(z, p) -> tuple:
    """(n1, n2, n3, l1, l2, l3) from ambient z = (z0..z3) and p = (p0..p3).

    Components may be floats, (N,) arrays with one entry per state, or duals.
    """
    z0, z1, z2, z3 = z
    p0, p1, p2, p3 = p
    return (
        z0 * p1 - z1 * p0,
        -(z0 * p2 + z2 * p0),
        -(z0 * p3 + z3 * p0),
        -(z2 * p3 - z3 * p2),
        -(z1 * p3 + z3 * p1),
        z1 * p2 + z2 * p1,
    )


def l_squared(state: PhaseState) -> float:
    """so(2,1) Casimir from chart momenta.

    Outer: p_phi^2 / cosh^2(tau) - p_tau^2 (any sign); inner:
    -(p_mu^2 + p_phi^2 / sinh^2(mu)), never positive.
    """
    p2, pphi = state.p2, state.pphi
    q2 = state.point.q2
    if state.point.chart.is_outer:
        c = math.cosh(q2)
        return pphi * pphi / (c * c) - p2 * p2
    if pphi != 0.0:
        s = math.sinh(q2)
        return -(p2 * p2 + pphi * pphi / (s * s))
    return -(p2 * p2)


# ---------------------------------------------------------------------------
# Demkov-Fradkin tensor
# ---------------------------------------------------------------------------


_DF_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def df_components(z, n, params: ModelParams) -> tuple:
    """(D11, D12, D13, D22, D23, D33), D_ik = N_i N_k / R^2 + omega^2 R^2 z_i z_k / z0^2.

    ``z`` = (z0..z3) and ``n`` = (n1, n2, n3), per state like `ambient_generators`.
    """
    z0 = guarded(z[0], True, "Demkov-Fradkin tensor undefined at z0 = 0")
    R2 = params.radius**2
    w = params.omega**2 * R2
    zs = z[1:]
    z0_sq = z0**2
    return tuple(n[i] * n[k] / R2 + w * (zs[i] * zs[k]) / z0_sq for i, k in _DF_PAIRS)


# ---------------------------------------------------------------------------
# Hamiltonian values from ambient data (chart-free)
# ---------------------------------------------------------------------------


def _free_hamiltonian(p):
    p0, p1, p2, p3 = p
    return 0.5 * (-p0**2 - p1**2 + p2**2 + p3**2)


def _potential(z, params: ModelParams):
    z0, z1, z2, z3 = z
    z0 = guarded(z0, True, "potential undefined at z0 = 0")
    w = 0.5 * params.omega**2 * params.radius**2
    return w * (z2**2 + z3**2 - z1**2) / z0**2


def invariant_coords(z, p, params: ModelParams, mode: str = "oscillator") -> tuple:
    """(H, H_free, GeneratorSet, D components) from ambient z and p, per state."""
    gens = GeneratorSet(*ambient_generators(z, p))
    h_free = _free_hamiltonian(p)
    h = h_free if mode == "free" else h_free + _potential(z, params)
    return h, h_free, gens, df_components(z, gens.n, params)


# ---------------------------------------------------------------------------
# invariant bundle and identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantSet:
    hamiltonian: float
    free_hamiltonian: float
    generators: GeneratorSet
    l_squared: float
    casimir1: float
    casimir2: float
    df: np.ndarray  # D_ik, symmetric 3x3


def evaluate_invariants(
    ph: EmbeddingPhase, params: ModelParams, mode: str = "oscillator"
) -> InvariantSet:
    """All conserved quantities at one ambient phase point."""
    h, h_free, gens, (d11, d12, d13, d22, d23, d33) = invariant_coords(*_zp(ph), params, mode)
    return InvariantSet(
        hamiltonian=h,
        free_hamiltonian=h_free,
        generators=gens,
        l_squared=gens.l_squared(),
        casimir1=gens.casimir1(),
        casimir2=gens.casimir2(),
        df=np.array([[d11, d12, d13], [d12, d22, d23], [d13, d23, d33]], dtype=float),
    )


# (name, tolerance relative to the state's scale); None = recorded only.
# The unweighted L.D contraction does not vanish (only the gbar-weighted one
# does); its residual is recorded for reference without a pass flag.
IDENTITIES = (
    ("C1 = 0", 1e-10),
    ("C2 + 2 R^2 H_free = 0", 1e-9),
    ("H = (-D11 + D22 + D33)/2 - L^2/(2 R^2)", 1e-9),
    ("sum_i gbar_ii L_i D_ik = 0", 1e-9),
    ("sum_i L_i D_ik (unweighted, recorded)", None),
)


def identity_residuals(h, h_free, gens: GeneratorSet, d, params: ModelParams):
    """Residual of each of IDENTITIES, and the scale its tolerance multiplies.

    Arguments as returned by `invariant_coords`: a GeneratorSet holding
    arrays gives residual arrays, one entry per state.
    """
    R2 = params.radius**2
    d11, d12, d13, d22, d23, d33 = d
    l1, l2, l3 = gens.l
    g1, g2, g3 = (g * x for g, x in zip(GBAR, gens.l))
    columns = ((d11, d12, d13), (d12, d22, d23), (d13, d23, d33))  # D[:, k]
    # trace coefficients 1/2 and -1/2: fixed by least squares over random
    # states during development (fit residual < 1e-12), hard-coded here
    trace = 0.5 * (-d11 + d22 + d33) - 0.5 * gens.l_squared() / R2
    residuals = (
        abs(gens.casimir1()),
        abs(gens.casimir2() + 2.0 * R2 * h_free),
        abs(trace - h),
        reduce(np.maximum, [abs(g1 * a + g2 * b + g3 * c) for a, b, c in columns]),
        reduce(np.maximum, [abs(l1 * a + l2 * b + l3 * c) for a, b, c in columns]),
    )
    scale = reduce(np.maximum, [abs(x) for x in d] + [abs(h)], 1.0)
    return residuals, scale


def report_identities(h, h_free, gens: GeneratorSet, d, params: ModelParams) -> dict:
    """The `verify identities` report over the states of `invariant_coords`' output.

    A row passes when each state's residual is below tol times that state's
    scale; informational rows keep passed = None.
    """
    residuals, scale = identity_residuals(h, h_free, gens, d, params)
    checks = [
        {
            "identity": name,
            "n_points": int(np.size(r)),
            "max_residual": float(np.max(r)),
            "tol": tol,
            "passed": None if tol is None else bool(np.all(r < tol * scale)),
        }
        for (name, tol), r in zip(IDENTITIES, residuals)
    ]
    return {
        "label": "identities",
        "passed": all(c["passed"] for c in checks if c["passed"] is not None),
        "checks": checks,
    }


def check_identities(inv: InvariantSet, params: ModelParams) -> dict:
    """The `verify identities` report at one phase point (n_points = 1)."""
    d = inv.df
    return report_identities(
        inv.hamiltonian, inv.free_hamiltonian, inv.generators,
        (d[0, 0], d[0, 1], d[0, 2], d[1, 1], d[1, 2], d[2, 2]), params)
