"""Service-time distributions.

The paper's workloads use deterministic per-type service times (Table 3,
Table 4, RocksDB).  Real deployments see variance within a type, so the
library also provides exponential, lognormal, Pareto (heavy-tailed), and
uniform samplers — used by the extension benchmarks and property tests.

Every distribution exposes ``mean()`` (needed by DARC's demand equation
and by load computations) and ``sample(rng)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..errors import ConfigurationError


class ServiceTimeDistribution(ABC):
    """Interface for per-type service-time samplers."""

    #: The service time of a distribution whose :meth:`sample` draws
    #: nothing from its rng, else None.  Request generators read it in
    #: place of calling :meth:`sample`, so it must stay None for any
    #: distribution that consumes randomness.
    constant: Optional[float] = None

    @abstractmethod
    def mean(self) -> float:
        """Expected service time in microseconds."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one service time (us, strictly positive)."""

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` service times; subclasses may vectorize."""
        return np.array([self.sample(rng) for _ in range(n)])


class Fixed(ServiceTimeDistribution):
    """Deterministic service time — what the paper's synthetic workloads use."""

    def __init__(self, value: float):
        if value <= 0:
            raise ConfigurationError(f"service time must be > 0, got {value}")
        self.value = float(value)
        self.constant = self.value

    def mean(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def __repr__(self) -> str:
        return f"Fixed({self.value})"


class Exponential(ServiceTimeDistribution):
    """Exponentially distributed service time with the given mean."""

    def __init__(self, mean_us: float):
        if mean_us <= 0:
            raise ConfigurationError(f"mean must be > 0, got {mean_us}")
        self._mean = float(mean_us)

    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self._mean, size=n)

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean})"


class LogNormal(ServiceTimeDistribution):
    """Lognormal service time parameterized by its mean and sigma.

    ``sigma`` is the shape parameter of the underlying normal; the
    location is solved so the distribution has the requested mean.
    """

    def __init__(self, mean_us: float, sigma: float = 1.0):
        if mean_us <= 0:
            raise ConfigurationError(f"mean must be > 0, got {mean_us}")
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be > 0, got {sigma}")
        self._mean = float(mean_us)
        self.sigma = float(sigma)
        self._mu = math.log(mean_us) - 0.5 * sigma * sigma

    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self.sigma))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self._mu, self.sigma, size=n)

    def __repr__(self) -> str:
        return f"LogNormal(mean={self._mean}, sigma={self.sigma})"


class Pareto(ServiceTimeDistribution):
    """Bounded-minimum Pareto — a canonical heavy-tailed service time.

    ``alpha`` must exceed 1 for the mean to exist; mean = alpha*xm/(alpha-1).
    """

    def __init__(self, minimum_us: float, alpha: float):
        if minimum_us <= 0:
            raise ConfigurationError(f"minimum must be > 0, got {minimum_us}")
        if alpha <= 1:
            raise ConfigurationError(f"alpha must be > 1 for finite mean, got {alpha}")
        self.minimum = float(minimum_us)
        self.alpha = float(alpha)

    def mean(self) -> float:
        return self.alpha * self.minimum / (self.alpha - 1.0)

    def sample(self, rng: np.random.Generator) -> float:
        # numpy's pareto() is the Lomax form; shift+scale to classic Pareto.
        return float(self.minimum * (1.0 + rng.pareto(self.alpha)))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.minimum * (1.0 + rng.pareto(self.alpha, size=n))

    def __repr__(self) -> str:
        return f"Pareto(min={self.minimum}, alpha={self.alpha})"


class Uniform(ServiceTimeDistribution):
    """Uniform service time on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if low <= 0 or high <= low:
            raise ConfigurationError(f"need 0 < low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def __repr__(self) -> str:
        return f"Uniform({self.low}, {self.high})"


class Bimodal(ServiceTimeDistribution):
    """Two-point distribution: ``short`` w.p. ``short_ratio`` else ``long``.

    This models an entire bimodal workload as a *single* type — useful for
    type-blind policies and for analytic cross-checks; the preset
    workloads instead model each mode as its own type.
    """

    def __init__(self, short: float, long: float, short_ratio: float):
        if short <= 0 or long <= 0:
            raise ConfigurationError("both modes must be > 0")
        if not 0.0 < short_ratio < 1.0:
            raise ConfigurationError(f"short_ratio must be in (0,1), got {short_ratio}")
        self.short = float(short)
        self.long = float(long)
        self.short_ratio = float(short_ratio)

    def mean(self) -> float:
        return self.short * self.short_ratio + self.long * (1.0 - self.short_ratio)

    def sample(self, rng: np.random.Generator) -> float:
        return self.short if rng.random() < self.short_ratio else self.long

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        picks = rng.random(n) < self.short_ratio
        return np.where(picks, self.short, self.long)

    def __repr__(self) -> str:
        return f"Bimodal(short={self.short}, long={self.long}, p={self.short_ratio})"
