"""kgdg: neuro-symbolic diabetic retinopathy grading and a
domain-generalization evaluation harness.

The package covers the decision layer only: it starts from lesion
detections / structured feature tables and neural-branch probability
tables, never from pixels.
"""

from .core import (
    GRADE_COUNT,
    LESIONS_ONLY_SCHEMA,
    LESIONS_VEIN_SCHEMA,
    DomainId,
    DRGrade,
    FusionWeights,
    LabeledExample,
    LesionType,
)
from .fusion import (
    FusionSource,
    FusionStrategy,
    batch_fuse,
    fuse,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    FusionSpec,
    SplitFractions,
    align_domains,
    load_experiment_config,
    run_experiment,
    select_weights,
    split_dataset,
    split_indices,
)
from .learn import TrainConfig, fit_model
from .metrics import (
    DomainStats,
    MetricReport,
    accuracy,
    auc_ovr_macro,
    domain_kl,
    evaluate_predictions,
    macro_f1,
    match_detections,
    seeded_summary,
)
from .report import compare_to_reference, emit_report, get_reference, reference_ids
from .rules import (
    aggregate_detections,
    grade_by_rules,
    rule_grade_as_probability,
)
from .synth import DomainSpec, SynthConfig, gen_dataset, shift_profile, simulate_neural_table, write_dataset

__version__ = "0.1.0"

__all__ = [
    "GRADE_COUNT",
    "LESIONS_ONLY_SCHEMA",
    "LESIONS_VEIN_SCHEMA",
    "DomainId",
    "DomainSpec",
    "DomainStats",
    "DRGrade",
    "ExperimentConfig",
    "ExperimentReport",
    "FusionSource",
    "FusionSpec",
    "FusionStrategy",
    "FusionWeights",
    "LabeledExample",
    "LesionType",
    "MetricReport",
    "SplitFractions",
    "SynthConfig",
    "TrainConfig",
    "accuracy",
    "aggregate_detections",
    "align_domains",
    "auc_ovr_macro",
    "batch_fuse",
    "compare_to_reference",
    "domain_kl",
    "emit_report",
    "evaluate_predictions",
    "fit_model",
    "fuse",
    "gen_dataset",
    "get_reference",
    "grade_by_rules",
    "load_experiment_config",
    "macro_f1",
    "match_detections",
    "reference_ids",
    "rule_grade_as_probability",
    "run_experiment",
    "seeded_summary",
    "select_weights",
    "shift_profile",
    "simulate_neural_table",
    "split_dataset",
    "split_indices",
    "write_dataset",
]
