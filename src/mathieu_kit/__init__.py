"""mathieu-kit: closed forms, Floquet analysis, and simulation for modulated oscillators.

The package centers on the damped modulated oscillator
m y'' + eta y' + (k0 + k cos(omega t)) y = (B J0 / c) cos(Omega t) and the
general Mathieu equation y'' + (h - 2 theta cos 2t) y = 0 it reduces to:
cylinder-function closed forms of the split equation (the cosine replaced by
e^{i omega t}) with an explicit variant adjudication, Hill determinant /
continued-fraction Floquet machinery for the cosine equation itself,
cross-checked against an independent integration oracle, the catalogued
variable-map reductions, and the flux-lattice field-modulation pipeline.
"""

from types import ModuleType as _ModuleType

from .bessel import BesselValue, bessel_j, bessel_y
from .closed_form import (
    ADMISSIBILITY_TOL,
    AdjudicationReport,
    ClosedFormSpec,
    DampedParams,
    Variant,
    adjudicate,
    argument_scale,
    evaluate,
    evaluate_grid,
    fundamental_pair,
    general_solution,
    homogeneous_ode,
    index,
    mirror,
    split_ode,
)
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    InvalidParameterError,
    MapDomainError,
    MathieuKitError,
    RangeLimitError,
    ResonanceError,
    SingularityError,
    SpanError,
    StiffnessError,
)
from .exponent_class import class_distance, normalize_exponent
from .floquet import (
    FloquetSolution,
    GeneralParams,
    characteristic_exponent,
    classify_stability,
    coefficients,
    eval_floquet,
    eval_floquet_grid,
    general_mathieu_ode,
    hill_determinant,
    second_solution,
    solve,
)
from .flux import (
    FluxParams,
    InducedFieldModel,
    ModulationResult,
    SinusoidalResponse,
    closed_form_motion,
    field_from_motion,
    full_ode,
    identify_frequencies,
    induced_field_model,
    linearized_delta,
    modulation_analysis,
    particular_k0,
    sideband_amplitudes,
    simulate_full,
    steady_state_modulation,
    symmetric_case_solution,
)
from .oracle import (
    LinearODE,
    MonodromyResult,
    ResidualReport,
    integrate,
    monodromy_exponent,
    residual,
    validate_tolerance,
)
from .reductions import (
    ReductionInput,
    ReductionResult,
    damped_to_general,
    interior_grid,
    pullback,
    reduce,
    source_ode,
)
from .samples import SolutionSample, TimeSeries

__version__ = "0.1.0"

# the public names are exactly those imported above (the submodules aside)
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
