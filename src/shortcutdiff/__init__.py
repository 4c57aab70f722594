"""Shortcut gradients for diffusion sampling, at desk scale.

A self-contained lab: a tape autodiff core with a recording switch and a
value-only twin, a toy denoising model, sequential and parallel-in-time
samplers, five gradient engines over the sampling map, and drivers for
latent steering and reward fine-tuning. Everything is float64 and deterministic from one master seed.
"""

__version__ = "0.1.0"

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import Dataset2D
from .drivers import (FinetuneConfig, FinetuneResult, LatentOptConfig,
                      LatentOptResult, OptimizationDiverged, finetune_params,
                      optimize_latent)
from .engines import (BoundReport, EstimatorSpec, GradTarget, GradientReport,
                      evaluate_bounds, grad_bptt, grad_fd_oracle,
                      grad_ift_oracle, grad_norm_sweep, grad_sdo_latent,
                      grad_sdo_params, grad_truncated, parameter_gradient,
                      sweep_norm_ratios)
from .model import (Denoiser, DenoiserField, DivergenceError, ScalarGainField,
                    TrainConfig, VelocityField, ZeroField, dsm_loss,
                    train_denoiser, velocity)
from .objectives import (Clamped, ClassifierAccuracyError, ClassifierMargin,
                         Composite, MomentMatch, Objective, QuadraticTarget,
                         RbfReward, ToyClassifier, eval_objective,
                         load_classifier, make_objective, save_classifier,
                         train_toy_classifier)
from .optim import AdamState, adam_step
from .sampler import (PicardResult, FixedPointReport, Trajectory, ddim_step,
                      picard_update, residual_violations, rollout,
                      sample_picard, sample_sequential, verify_fixed_point)
from .schedule import Schedule
from .seeding import splitmix64_next, stream_rng, substream_seeds
from .tape import PRIMITIVES, VALUES, ShapeError, Tape, Values, Var

__all__ = [
    "AdamState", "BoundReport", "CheckpointError", "Clamped",
    "ClassifierAccuracyError",
    "ClassifierMargin", "Composite", "Dataset2D", "Denoiser", "DenoiserField",
    "DivergenceError", "EstimatorSpec", "FinetuneConfig", "FinetuneResult",
    "GradTarget", "GradientReport", "LatentOptConfig", "LatentOptResult",
    "MomentMatch", "Objective", "OptimizationDiverged", "PRIMITIVES",
    "PicardResult", "FixedPointReport", "QuadraticTarget", "RbfReward",
    "ScalarGainField", "Schedule", "ShapeError", "Tape", "ToyClassifier",
    "TrainConfig", "Trajectory", "VALUES", "Values", "Var", "VelocityField",
    "ZeroField",
    "adam_step", "ddim_step", "dsm_loss", "eval_objective", "evaluate_bounds",
    "finetune_params", "grad_bptt", "grad_fd_oracle", "grad_ift_oracle",
    "grad_norm_sweep", "grad_sdo_latent", "grad_sdo_params", "grad_truncated",
    "load_checkpoint", "load_classifier", "make_objective", "optimize_latent",
    "parameter_gradient", "picard_update", "residual_violations", "rollout",
    "sample_picard", "sample_sequential", "save_checkpoint", "save_classifier",
    "splitmix64_next", "stream_rng", "substream_seeds", "sweep_norm_ratios",
    "train_denoiser", "train_toy_classifier", "velocity", "verify_fixed_point",
]
