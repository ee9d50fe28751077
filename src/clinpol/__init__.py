"""Tree-based behavior cloning and offline evaluation of treatment policies.

The package covers the full loop for observational treatment sequences:

* ``data``: the columnar cohort, JSONL/CSV IO, imputation, state assembly,
  trajectory-level splits.
* ``tree``: a CART classifier with probabilistic leaves, leaf outcome
  averages, and DOT/JSON export.
* ``calibration``: per-class sigmoid recalibration of leaf frequencies.
* ``behavior``: one behavior-model class whose component trees are keyed
  by name: a single K-class ``tree`` (``dt``), a ``switch``/``treatment``
  composition (``dts``), or that plus a dedicated ``baseline`` tree
  (``dtbls``); and the one ``Evaluation`` of a model on a cohort that every
  policy and importance weight reads.
* ``policies``: target policies derived from a fitted model (top-k, outcome
  guided, switch-rate adjusted, random, softened).
* ``ope``: trajectory importance weights in log space, as arrays, WIS/IS
  estimates, effective sample size, and median/IQR summaries.
* ``sim``: two synthetic cohorts with replayable generator policies and a
  Monte-Carlo rollout oracle.
* ``harness``: repeated-split experiment protocol with random hyperparameter
  search and deterministic CSV reports.
* ``cli``: the ``clinpol`` command (simulate, fit, evaluate, export, report,
  experiment).

The public names most workflows need are re-exported here.
"""

from .behavior import (
    MODEL_KINDS,
    BaselineSwitchModel,
    BehaviorError,
    BehaviorModel,
    DegenerateSwitchError,
    Evaluation,
    SwitchTreatmentModel,
    TreeBehaviorModel,
    fit_dt,
    fit_dtbls,
    fit_dts,
    model_from_json,
    model_to_json,
)
from .data import (
    NONE_ACTION,
    Dataset,
    DatasetError,
    Feature,
    FeatureSchema,
    SplitSpec,
    StateConfig,
    StepData,
    build_states,
    from_records,
    impute_and_encode,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .harness import (
    ExperimentConfig,
    HarnessError,
    HyperparamGrid,
    ReportRow,
    cross_validate,
    load_bundle,
    run_experiment,
    save_bundle,
    select_model,
)
from .metrics import auroc_macro, binary_auroc, sce
from .ope import (
    ESTIMATORS,
    ImportanceWeights,
    NoOverlapError,
    OPEError,
    OPEResult,
    SupportViolationError,
    effective_sample_size,
    importance_weights,
    is_estimate,
    median_iqr,
    wis_estimate,
)
from .policies import (
    POLICY_TYPES,
    BehaviorPolicy,
    BestOutcomePolicy,
    PolicyError,
    RandomPolicy,
    SoftenedPolicy,
    SwitchAdjustedPolicy,
    TopKPolicy,
    build_policy,
    soften,
)
from .sim import (
    ChronicOraclePolicy,
    ChronicSimConfig,
    EpisodicSimConfig,
    SimError,
    generate_chronic,
    generate_episodic,
    monte_carlo_value,
    simulate,
    truth_policy,
)
from .tree import DecisionTree, TreeHyperparams, fit_tree, tree_to_dot, tree_to_json

__version__ = "0.1.0"
