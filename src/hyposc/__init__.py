"""Classical harmonic oscillator on the SO(2,2) hyperboloid.

The closed-form regime analysis (`regimes`, standard library only), charts
and momentum lifts (`geometry`), conserved quantities and their identities
(`invariants`), a chart or ambient symplectic-constraint integrator
(`dynamics`), canonical Poisson brackets of named observables with algebra
sweeps (`poisson`), closed-form orbits and figure data (`orbits`), and a
command-line front end (`cli`).

The names below are exported lazily (PEP 562): `import hyposc` loads no
submodule, and each name imports its module on first access, so that
`hyposc.classify` does not load numpy.
"""

import importlib

_EXPORTS = {
    "regimes": (
        "ChartId", "ModelParams", "Carrier", "ConicKind", "ConicParams",
        "OrbitClassification", "RadialRegime", "classify", "eff_minimum", "orbit_conic",
        "period_formula", "radial_roots", "turning_radii",
    ),
    "geometry": (
        "ChartPoint", "EmbeddingPhase", "EmbeddingPoint", "PhaseState", "chart_select",
        "constraint_residual", "embed", "momentum_lift", "momentum_project", "unembed",
    ),
    "invariants": (
        "GeneratorSet", "InvariantSet", "check_identities", "evaluate_invariants", "l_squared",
    ),
    "dynamics": (
        "Event", "EventKind", "IntegrationConfig", "IntegrationError", "Mode",
        "Trajectory", "hamiltonian", "integrate", "measure_period",
    ),
    "orbits": (
        "angular_solution", "canonical_state", "contraction_check", "effective_potential",
        "export_figures", "radial_solution", "time_of_flight", "trajectory_negative_l2",
    ),
    "poisson": (
        "BracketCheck", "BracketReport", "sample_states", "verify_df_algebra", "verify_so22",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
