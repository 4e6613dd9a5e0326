"""Entropy-regularized split-inference training with inversion-robustness
bounds and adversarial evaluation."""

__version__ = "0.1.0"
