"""Weak/strong Gaussian-noise augmentations and temperature sharpening."""

from dataclasses import dataclass

import numpy as np


@dataclass
class AugmentPolicy:
    weak_noise: float = 0.0
    strong_noise: float = 0.0
    strong_mask_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.weak_noise <= self.strong_noise:
            raise ValueError("need 0 <= weak_noise <= strong_noise")
        if not 0.0 <= self.strong_mask_prob <= 0.5:
            raise ValueError("strong_mask_prob must lie in [0, 0.5]")


def weak_augment_batch(X: np.ndarray, policy: AugmentPolicy,
                       rng: np.random.Generator) -> np.ndarray:
    return X + policy.weak_noise * rng.standard_normal(X.shape)


def strong_augment_batch(X: np.ndarray, policy: AugmentPolicy,
                         rng: np.random.Generator) -> np.ndarray:
    """Additive noise (drawn first), then coordinate masking."""
    noised = X + policy.strong_noise * rng.standard_normal(X.shape)
    mask = rng.random(X.shape) >= policy.strong_mask_prob
    return noised * mask


def sharpen(H: np.ndarray, temperature: float) -> np.ndarray:
    """Row-wise H^(1/T) / sum(H^(1/T)).

    Rows that underflow to zero come back non-finite; the caller decides
    what that means.
    """
    powered = H ** (1.0 / temperature)
    return powered / powered.sum(axis=1, keepdims=True)
