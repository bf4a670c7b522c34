"""Workbench for alignment-regularized data augmentation.

A small numpy/scipy stack for studying how aligning the representations
of augmented sample pairs affects robustness to distribution shift:

- trainable parameters and the closed-form backward pass of a training
  step, whose loss and logit gradients are written out as one formula
  (:mod:`arlab.tensor`)
- MLP classifiers with portable binary weights (:mod:`arlab.model`)
- image corpora: IDX files and a synthetic digit generator
  (:mod:`arlab.datasets`)
- parametric shift families and their extreme members
  (:mod:`arlab.transforms`)
- exact empirical Wasserstein-1 via assignment (:mod:`arlab.wasserstein`)
- six alignment penalties, one with an adversarial discriminator
  (:mod:`arlab.regularizers`)
- augmentation training modes and worst-case selection
  (:mod:`arlab.training`)
- accuracy / robust accuracy / neighborhood invariance and their tables
  (:mod:`arlab.evaluation`)
- numerical checks of the supporting analysis (:mod:`arlab.theory`)
- the ``arlab`` command line, home of the lambda sweep (:mod:`arlab.cli`)
"""

from .datasets import LabeledImages, gen_minidigits, load_idx, one_hot, save_idx
from .errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    FormatError,
    MergeError,
    ShapeError,
    SizeLimitError,
)
from .evaluation import (
    EvalReport,
    MetricsRow,
    accuracy,
    evaluate,
    format_table,
    robust_accuracy,
    rows_from_csv,
    rows_to_csv,
)
from .model import Classifier, family_logits, init, load_weights, logits_array, save_weights
from .regularizers import ALIGN_KINDS, init_aux, penalty
from .tensor import NonFiniteError, Tensor, backward
from .theory import (
    AssumptionReport,
    BoundReport,
    bound_terms,
    check_a6,
    check_efficiency,
    check_prop_a2,
    check_vertices,
    efficiency_masks,
    run_all_checks,
)
from .training import LrSchedule, TrainPlan, select_worst, train
from .transforms import (
    FAMILY_NAMES,
    TransformFamily,
    apply_batch,
    family_by_name,
    family_contrast,
    family_rotation,
    family_texture,
)
from .wasserstein import w1_exact, w1_matching, w1_matrix

__version__ = "0.1.0"

__all__ = [
    "ALIGN_KINDS",
    "AssumptionReport",
    "BoundReport",
    "Classifier",
    "ConfigError",
    "DegenerateInputError",
    "DivergenceError",
    "EvalReport",
    "FAMILY_NAMES",
    "FormatError",
    "LabeledImages",
    "LrSchedule",
    "MergeError",
    "MetricsRow",
    "NonFiniteError",
    "ShapeError",
    "SizeLimitError",
    "Tensor",
    "TrainPlan",
    "TransformFamily",
    "accuracy",
    "apply_batch",
    "backward",
    "bound_terms",
    "check_a6",
    "check_efficiency",
    "check_prop_a2",
    "check_vertices",
    "efficiency_masks",
    "evaluate",
    "family_by_name",
    "family_contrast",
    "family_logits",
    "family_rotation",
    "family_texture",
    "format_table",
    "gen_minidigits",
    "init",
    "init_aux",
    "load_idx",
    "load_weights",
    "logits_array",
    "one_hot",
    "penalty",
    "robust_accuracy",
    "rows_from_csv",
    "rows_to_csv",
    "run_all_checks",
    "save_idx",
    "save_weights",
    "select_worst",
    "train",
    "w1_exact",
    "w1_matching",
    "w1_matrix",
]
