"""Risk structures: hazard catalogs, model construction, analysis, planning.

A risk structure is a weighted labeled transition system whose states track
one phase per declared hazard.  This package builds such structures from
declarative catalogs, assigns risk regions and priorities, reduces models by
state equivalences, and plans lowest-risk mitigation strategies.
"""

from .core import (
    Action,
    ActionClass,
    HazardId,
    HazardPhaseModel,
    IllegalPhaseTransition,
    ModelOptions,
    OperationalSituation,
    Phase,
    PhaseKind,
    RiskModelError,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
    UnknownState,
    all_inactive,
    apply_action,
    embed_state,
    full_state_space_size,
    is_mishap,
    legal_phase_step,
    parse_state,
    state_from_phases,
    state_parser,
)
from .order import (
    Band,
    Comparison,
    FeatureBaseline,
    FeatureEffect,
    FeatureModel,
    FeatureStatus,
    FeatureVariant,
    MissingFeatureDeclaration,
    OrderClass,
    classify_by_order,
    degradation_equiv,
    feature_equiv,
    feature_profile,
    hazard_equiv,
    mishap_equiv,
    mitigation_equiv,
    mitigation_leq,
    mitigation_lt,
    phase_leq,
    phase_lt,
    sv_compare,
    sv_scale,
)
from .construct import (
    Catalog,
    CatalogInvalid,
    ConstructionLog,
    EndangermentRule,
    MishapRule,
    MitigationRule,
    PhaseGuard,
    SweepRecord,
    construct_rs,
    verify_complete,
)
from .analysis import (
    DELTA_M,
    AnalysisTable,
    BandThresholds,
    Region,
    analysis_table,
    assign_regions,
    mishap_reach_probability,
    reach,
    risk_priorities,
    risk_priority,
)
from .plan import (
    Plan,
    is_mitigation_monotonous,
    make_plan,
    plan_mitigations,
    safest_possible_states,
)
from .reduce import (
    DropRule,
    collapse_safe_chains,
    drop_irrelevant,
    quotient,
)
from .serialize import (
    load_catalog,
    load_drop_rules,
    load_model,
    model_from_dict,
    model_to_dict,
    model_to_json,
    save_model,
    to_dot,
)

__version__ = "0.1.0"
