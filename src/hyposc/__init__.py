"""Classical harmonic oscillator on the SO(2,2) hyperboloid.

Charts and momentum lifts (`geometry`), conserved quantities and their
identities (`invariants`), a chart or ambient symplectic-constraint
integrator (`dynamics`), canonical Poisson brackets with algebra sweeps
(`poisson`), closed-form orbit analysis and figure data (`orbits`), and a
command-line front end (`cli`).
"""

from .geometry import (
    ChartId,
    ChartPoint,
    EmbeddingPhase,
    EmbeddingPoint,
    ModelParams,
    PhaseState,
    beltrami,
    chart_select,
    chart_transition,
    constraint_residual,
    embed,
    momentum_lift,
    momentum_project,
    phase_transition,
    unembed,
)
from .invariants import (
    GeneratorSet,
    InvariantSet,
    check_identities,
    evaluate_invariants,
    generators,
    l_squared,
)
from .dynamics import (
    Event,
    EventKind,
    IntegrationConfig,
    IntegrationError,
    Mode,
    Trajectory,
    hamiltonian,
    integrate,
    measure_period,
)
from .orbits import (
    Carrier,
    ConicKind,
    ConicParams,
    OrbitClassification,
    RadialRegime,
    angular_solution,
    canonical_state,
    classify,
    contraction_check,
    effective_potential,
    eff_minimum,
    export_figures,
    orbit_conic,
    period_formula,
    radial_roots,
    radial_solution,
    time_of_flight,
    trajectory_negative_l2,
    turning_radii,
)
from .poisson import (
    BracketCheck,
    BracketReport,
    Observable,
    bracket,
    jacobi_residual,
    sample_states,
    verify_df_algebra,
    verify_so22,
)

__version__ = "0.1.0"

__all__ = [
    "ChartId", "ChartPoint", "EmbeddingPhase", "EmbeddingPoint", "ModelParams",
    "PhaseState", "beltrami", "chart_select", "chart_transition",
    "constraint_residual", "embed", "momentum_lift", "momentum_project",
    "phase_transition", "unembed",
    "GeneratorSet", "InvariantSet", "check_identities", "evaluate_invariants",
    "generators", "l_squared",
    "Event", "EventKind", "IntegrationConfig", "IntegrationError", "Mode",
    "Trajectory", "hamiltonian", "integrate", "measure_period",
    "Carrier", "ConicKind", "ConicParams", "OrbitClassification",
    "RadialRegime", "angular_solution", "canonical_state", "classify",
    "contraction_check", "effective_potential", "eff_minimum",
    "export_figures", "orbit_conic", "period_formula", "radial_roots",
    "radial_solution", "time_of_flight", "trajectory_negative_l2",
    "turning_radii",
    "BracketCheck", "BracketReport", "Observable", "bracket",
    "jacobi_residual", "sample_states", "verify_df_algebra", "verify_so22",
    "__version__",
]
