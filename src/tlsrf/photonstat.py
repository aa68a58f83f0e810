"""Photon-number statistics of the excitation light.

Coherent light carries a Poissonian photon-number distribution, chaotic
(thermal) light a Bose-Einstein one whose intensity, expressed as a
squared Rabi frequency, is exponentially distributed in the
large-photon-number limit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class DistributionKind(enum.Enum):
    POISSON = "poisson"
    BOSE_EINSTEIN = "bose-einstein"


@dataclass(frozen=True)
class PhotonDistribution:
    kind: DistributionKind
    mean_n: float

    def __post_init__(self):
        if self.mean_n < 0:
            raise ValueError("mean_n must be >= 0")

    def cutoff(self, tail: float = 1e-12) -> int:
        """Smallest n such that the probability mass above it is < tail."""
        mu = self.mean_n
        if mu == 0:
            return 1
        if self.kind is DistributionKind.POISSON:
            return int(mu + 15.0 * math.sqrt(mu) + 50.0)
        # Bose-Einstein tail beyond N is (mu/(1+mu))**(N+1)
        return int(math.log(tail) / math.log(mu / (1.0 + mu))) + 2


_log_gamma = np.vectorize(math.lgamma, otypes=[float])


def pmf(dist: PhotonDistribution, n) -> np.ndarray | float:
    """Probability of observing n photons.

    Evaluated in log space via the log-gamma function so that large
    means (say several hundred photons) stay finite.
    """
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or not np.issubdtype(n_arr.dtype, np.integer):
        if np.any(np.asarray(n_arr, dtype=float) != np.floor(n_arr)) or np.any(n_arr < 0):
            raise ValueError("n must be a non-negative integer")
    nf = np.asarray(n_arr, dtype=float)
    mu = dist.mean_n
    if mu == 0.0:
        out = np.where(nf == 0, 1.0, 0.0)
        return out if out.shape else float(out)
    if dist.kind is DistributionKind.POISSON:
        logp = nf * math.log(mu) - mu - _log_gamma(nf + 1.0)
    else:
        logp = nf * math.log(mu) - (nf + 1.0) * math.log1p(mu)
    out = np.exp(logp)
    return out if out.shape else float(out)


def number_std(dist: PhotonDistribution) -> float:
    """Standard deviation of the photon number.

    Poisson: sqrt(mean); Bose-Einstein: sqrt(mean + mean**2).
    """
    mu = dist.mean_n
    if dist.kind is DistributionKind.POISSON:
        return math.sqrt(mu)
    return math.sqrt(mu + mu * mu)


def g2_from_g1(g1_abs: float) -> float:
    """Zero-offset relation for chaotic fields: g2 = 1 + |g1|**2."""
    if not 0.0 <= g1_abs <= 1.0:
        raise ValueError("|g1| must lie in [0, 1]")
    return 1.0 + g1_abs * g1_abs


def sample_chaotic_intensity(rng: np.random.Generator, mean_omega_sq: float, size=None):
    """Draw squared Rabi frequencies for a chaotic field.

    The instantaneous intensity of chaotic light is exponentially
    distributed, so the squared Rabi frequency is drawn from an
    exponential law with the given mean.
    """
    if mean_omega_sq < 0:
        raise ValueError("mean_omega_sq must be >= 0")
    if mean_omega_sq == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return rng.exponential(scale=mean_omega_sq, size=size)
