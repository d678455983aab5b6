"""Contrastive learning for any number of modalities via multilinear
inner products, with an exact discrete information oracle."""

from .data import Dataset, SplitSpec, apply_missingness, gen_synth, gen_synth5d, gen_xor1d, split
from .evaluation import (
    BootstrapReport,
    RetrievalResult,
    bootstrap_accuracy,
    calibrated_conditional,
    classify_b_5d,
    classify_target,
    clip_candidate_scores,
    rank_with_prior,
    sufficient_statistic_probe,
    symile_candidate_scores,
)
from .model import ModelParams, init_params
from .nn import AffineEncoder, adamw_step, affine_forward, finite_diff_grad, softmax_cross_entropy
from .objectives import (
    clip_pair_loss,
    mip,
    pairwise_clip_loss,
    symile_loss,
)
from .oracle import (
    JointTable,
    TabularScorer,
    bound_value,
    build_synth_table,
    build_xor1d_table,
    conditional_mi,
    entropy,
    marginal,
    mutual_information,
    optimal_scorer,
    total_correlation,
)
from .train import Checkpoint, TrainConfig, TrainResult, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AffineEncoder",
    "BootstrapReport",
    "Checkpoint",
    "Dataset",
    "JointTable",
    "ModelParams",
    "RetrievalResult",
    "SplitSpec",
    "TabularScorer",
    "TrainConfig",
    "TrainResult",
    "adamw_step",
    "affine_forward",
    "apply_missingness",
    "bootstrap_accuracy",
    "bound_value",
    "build_synth_table",
    "build_xor1d_table",
    "calibrated_conditional",
    "classify_b_5d",
    "classify_target",
    "clip_candidate_scores",
    "clip_pair_loss",
    "conditional_mi",
    "entropy",
    "finite_diff_grad",
    "gen_synth",
    "gen_synth5d",
    "gen_xor1d",
    "init_params",
    "load_checkpoint",
    "marginal",
    "mip",
    "mutual_information",
    "optimal_scorer",
    "pairwise_clip_loss",
    "rank_with_prior",
    "save_checkpoint",
    "softmax_cross_entropy",
    "split",
    "sufficient_statistic_probe",
    "symile_candidate_scores",
    "symile_loss",
    "total_correlation",
    "train",
]
