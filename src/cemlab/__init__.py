"""Entropy-regularized split-inference training with inversion-robustness
bounds and adversarial evaluation."""

__version__ = "0.1.0"

from .bounds import (
    BoundsReport,
    NoiseModel,
    cem_loss,
    cem_loss_grad,
    cem_step,
    cond_entropy_lower,
    mi_upper_bound,
    mixture_entropy_upper,
    mse_floor,
)
from .data import Dataset, load_csv, synth_blobs
from .mixture import (
    BatchAssignment,
    GaussianComponent,
    GaussianMixture,
    MixtureState,
    assign_nearest,
    fit_init,
    update_covariance,
    update_weights,
)
from .numerics import Covariance, McEstimate, mc_entropy
from .trainer import LossBreakdown, TrainingConfig, evaluate_utility, train, train_many

__all__ = [
    "BatchAssignment",
    "BoundsReport",
    "Covariance",
    "Dataset",
    "GaussianComponent",
    "GaussianMixture",
    "LossBreakdown",
    "McEstimate",
    "MixtureState",
    "NoiseModel",
    "TrainingConfig",
    "assign_nearest",
    "cem_loss",
    "cem_loss_grad",
    "cem_step",
    "cond_entropy_lower",
    "evaluate_utility",
    "fit_init",
    "load_csv",
    "mc_entropy",
    "mi_upper_bound",
    "mixture_entropy_upper",
    "mse_floor",
    "synth_blobs",
    "train",
    "train_many",
    "update_covariance",
    "update_weights",
]
