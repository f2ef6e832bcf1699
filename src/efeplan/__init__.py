"""Discrete-state active inference engine with a T-maze foraging harness."""

from types import ModuleType as _ModuleType

from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    TrialRecord,
    emit_plot_data,
    run_experiment,
    run_trial,
    write_records,
)
from .inference import (
    ImpossibleObservationError,
    InferenceResult,
    bma_beliefs,
    infer_states,
    vfe,
)
from .model import (
    GenerativeModel,
    ModelEnvironment,
    ModelSpecError,
    Policy,
    PolicySet,
    load_spec,
    save_spec,
    validate,
)
from .numerics import (
    Categorical,
    DegenerateDistributionError,
    entropy,
    kl_divergence,
    normalize,
    softmax,
)
from .planning import (
    ConfigurationError,
    EfeBreakdown,
    ObjectiveKind,
    PlanContext,
    PolicyScore,
    action_marginal,
    ambiguity,
    evidence_bound_diagnostic,
    expected_free_energy,
    expected_info_gain,
    extrinsic_value,
    policy_posterior,
    predictive_outcome,
    predictive_states,
    risk_states,
    score_policies,
    select_action,
    state_outcome_utility_comparison,
    tie_set,
)
from .tmaze import (
    build_tmaze_model,
    default_context,
    score_outcome,
)

# every name imported above, and no submodule
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
