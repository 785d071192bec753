"""fairfront: explainable post-processing bias mitigation with efficient frontiers."""

from .distributions import (
    ABS,
    ABS_LOG_RATIO,
    SQUARE,
    CostFunction,
    EmpiricalDistribution,
    wasserstein1,
)
from .bias_metrics import (
    GroupedScores,
    ThresholdMeasure,
    cost_bias,
    invariant_bias,
    multi_attribute_bias,
)
from .relaxation import RelaxationFamily, logistic, ramp, shifted_logistic
from .linear_family import LinearFamily
from .estimators import BiasEstimatorSpec, EstimatorBatch, bias_value_and_grad
from .encoders import (
    EncoderMatrix,
    ExplanationSet,
    additive_encoders,
    exact_marginal_shapley,
    shapley_encoders,
    tree_pca_encoders,
)
from .gbdt import Ensemble, GBDTParams, Tree, per_tree_outputs
from .gbdt import train as train_gbdt
from .optimizer import (
    MitigationTrace,
    SweepConfig,
    default_omegas,
    distill_loss,
    loss_bias_ratio_scale,
    penalized_objective,
    sgd_sweep,
)
from .frontier import (
    FrontierPoint,
    evaluate,
    pareto_filter,
    read_frontier_csv,
    score_metrics,
    write_frontier_csv,
    write_frontier_svg,
)
from .baselines import (
    OtProjection,
    ot_projection,
    ot_repair,
    random_search_rescaling,
    repair_scores_by_label,
    rescale_transform,
)
from .data import (
    Dataset,
    apply_preprocessor,
    fit_preprocessor,
    generate_m1,
    generate_m2,
    load_csv,
    save_csv,
    split,
)

__version__ = "0.1.0"
