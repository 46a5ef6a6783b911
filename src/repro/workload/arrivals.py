"""Open-loop arrival processes.

The paper's client "generates requests under a Poisson process" and runs
open loop — arrivals never slow down when the server lags, which is what
exposes tail blow-ups.  :class:`PoissonArrivals` is that client;
:class:`DeterministicArrivals` (fixed inter-arrival gap) and
:class:`BurstyArrivals` (Markov-modulated on/off) support the sensitivity
studies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Optional

import numpy as np

from ..errors import WorkloadError


class ArrivalProcess(ABC):
    """Generates a monotonically non-decreasing stream of arrival times."""

    @abstractmethod
    def inter_arrival(self, rng: np.random.Generator) -> float:
        """Draw the next gap (us, >= 0)."""

    def times(self, rng: np.random.Generator, n: int, start: float = 0.0) -> np.ndarray:
        """Generate ``n`` absolute arrival times starting after ``start``."""
        gaps = np.array([self.inter_arrival(rng) for _ in range(n)])
        return start + np.cumsum(gaps)


class PoissonArrivals(ArrivalProcess):
    """Poisson arrivals at ``rate`` requests per microsecond."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be > 0, got {rate}")
        self.rate = float(rate)
        #: Mean inter-arrival gap (us).  A gap is this times one unit
        #: exponential, which is how numpy's ``exponential`` computes it.
        self.mean_gap = 1.0 / rate

    def inter_arrival(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_gap))

    def times(self, rng: np.random.Generator, n: int, start: float = 0.0) -> np.ndarray:
        return start + np.cumsum(rng.exponential(self.mean_gap, size=n))

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self.rate}/us)"


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals at ``rate`` requests per microsecond."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be > 0, got {rate}")
        self.rate = float(rate)
        self._gap = 1.0 / rate

    def inter_arrival(self, rng: np.random.Generator) -> float:
        return self._gap

    def times(self, rng: np.random.Generator, n: int, start: float = 0.0) -> np.ndarray:
        return start + self._gap * np.arange(1, n + 1)

    def __repr__(self) -> str:
        return f"DeterministicArrivals(rate={self.rate}/us)"


class BurstyArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (on/off bursts).

    In the *burst* state arrivals come at ``rate * burst_factor``; in the
    *calm* state at a reduced rate chosen so the long-run average equals
    ``rate``.  State sojourns are exponential with mean ``burst_len_us``
    and ``calm_len_us``.
    """

    def __init__(
        self,
        rate: float,
        burst_factor: float = 4.0,
        burst_len_us: float = 100.0,
        calm_len_us: float = 300.0,
    ):
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be > 0, got {rate}")
        if burst_factor <= 1.0:
            raise WorkloadError(f"burst_factor must be > 1, got {burst_factor}")
        if burst_len_us <= 0 or calm_len_us <= 0:
            raise WorkloadError("state sojourn times must be > 0")
        self.rate = float(rate)
        self.burst_factor = float(burst_factor)
        self.burst_len_us = float(burst_len_us)
        self.calm_len_us = float(calm_len_us)
        # Solve the calm-state rate so that the time-weighted average rate
        # equals ``rate``:  (b*hi + c*lo) / (b + c) = rate.
        b, c = burst_len_us, calm_len_us
        hi = rate * burst_factor
        lo = (rate * (b + c) - hi * b) / c
        if lo <= 0:
            raise WorkloadError(
                "burst parameters leave no budget for the calm state; "
                "reduce burst_factor or burst_len_us"
            )
        self._hi = hi
        self._lo = lo
        self._in_burst = False
        self._state_left = 0.0

    def inter_arrival(self, rng: np.random.Generator) -> float:
        """Draw the next gap, advancing through state changes as needed."""
        gap = 0.0
        while True:
            if self._state_left <= 0.0:
                self._in_burst = not self._in_burst
                mean_len = self.burst_len_us if self._in_burst else self.calm_len_us
                self._state_left = float(rng.exponential(mean_len))
            current_rate = self._hi if self._in_burst else self._lo
            candidate = float(rng.exponential(1.0 / current_rate))
            if candidate <= self._state_left:
                self._state_left -= candidate
                return gap + candidate
            # The state expires before the candidate arrival: consume the
            # remaining sojourn and redraw in the next state (memorylessness
            # of the exponential makes this exact).
            gap += self._state_left
            self._state_left = 0.0

    def __repr__(self) -> str:
        return (
            f"BurstyArrivals(rate={self.rate}/us, x{self.burst_factor} bursts, "
            f"burst={self.burst_len_us}us, calm={self.calm_len_us}us)"
        )


def arrival_stream(
    process: ArrivalProcess,
    rng: np.random.Generator,
    limit: Optional[int] = None,
    start: float = 0.0,
) -> Iterator[float]:
    """Lazily yield absolute arrival times from ``process``."""
    t = start
    produced = 0
    while limit is None or produced < limit:
        t += process.inter_arrival(rng)
        yield t
        produced += 1
