"""Percentile utilities.

The paper reports 99.9th-percentile latency and slowdown.  We use the
nearest-rank definition (inclusive linear interpolation via numpy) and
also provide a streaming reservoir-free P² quantile estimator for
long-running monitors where storing every sample is undesirable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: The tail percentile the paper reports throughout its evaluation.
P999 = 99.9


def percentile(values: Sequence[float], pct: float) -> float:
    """Percentile of ``values`` (linear interpolation); NaN when empty."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0,100], got {pct}")
    return float(np.percentile(arr, pct))


def p999(values: Sequence[float]) -> float:
    """The paper's headline tail: the 99.9th percentile."""
    return percentile(values, P999)


def tail_credible(n_samples: int, pct: float = P999, min_tail: int = 10) -> bool:
    """Whether ``n_samples`` gives a stable estimate of ``pct``.

    A p99.9 computed from 500 samples is dominated by one or two extreme
    order statistics; experiment drivers use this to warn (or enlarge
    runs) when a type is too rare for the requested percentile.
    """
    tail_count = n_samples * (1.0 - pct / 100.0)
    # Epsilon guards the float artifact 10000*(1-0.999) = 9.9999...
    return tail_count >= min_tail - 1e-9 * n_samples


class P2Quantile:
    """The P² streaming quantile estimator (Jain & Chlamtac, 1985).

    Maintains five markers; O(1) memory and per-update cost.  Accuracy is
    excellent for central quantiles and acceptable for tails given enough
    samples; exact arrays remain the default for paper figures.
    """

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0,1), got {q}")
        self.q = q
        self._initial: List[float] = []
        self._n: Optional[List[int]] = None
        self._np: Optional[List[float]] = None
        self._heights: Optional[List[float]] = None
        #: Per-update moves of the three middle desired positions,
        #: computed once the markers initialise.
        self._dn: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        self.count = 0

    def update(self, x: float) -> None:
        self.count += 1
        heights = self._heights
        if heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._n = [0, 1, 2, 3, 4]
                q = self.q
                self._np = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
                self._dn = (q / 2, q, (1 + q) / 2)
            return
        n = self._n
        n_desired = self._np
        # Find the cell k containing x and clamp the extremes.  The
        # comparisons run in the order the textbook loop makes them, so
        # an unordered x (NaN) still lands in cell 0.
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        elif x < heights[1]:
            k = 0
        elif x < heights[2]:
            k = 1
        elif x < heights[3]:
            k = 2
        elif x < heights[4]:
            k = 3
        else:
            k = 0
        if k < 1:
            n[1] += 1
        if k < 2:
            n[2] += 1
        if k < 3:
            n[3] += 1
        n[4] += 1
        # Desired positions move by (0, q/2, q, (1+q)/2, 1); marker 0's
        # stays at exactly 0.0, so adding its zero increment is skipped.
        dn1, dn2, dn3 = self._dn
        n_desired[1] += dn1
        n_desired[2] += dn2
        n_desired[3] += dn3
        n_desired[4] += 1.0
        # Adjust the three middle markers with the parabolic formula, in
        # order: each adjustment moves n[i], which the next one reads.
        d = n_desired[1] - n[1]
        if d >= 1:
            if n[2] - n[1] > 1:
                self._adjust(1, 1)
        elif d <= -1 and n[0] - n[1] < -1:
            self._adjust(1, -1)
        d = n_desired[2] - n[2]
        if d >= 1:
            if n[3] - n[2] > 1:
                self._adjust(2, 1)
        elif d <= -1 and n[1] - n[2] < -1:
            self._adjust(2, -1)
        d = n_desired[3] - n[3]
        if d >= 1:
            if n[4] - n[3] > 1:
                self._adjust(3, 1)
        elif d <= -1 and n[2] - n[3] < -1:
            self._adjust(3, -1)

    def _adjust(self, i: int, sign: int) -> None:
        """Move marker ``i`` one position toward its desired position."""
        assert self._heights is not None and self._n is not None
        heights = self._heights
        candidate = self._parabolic(i, sign)
        if heights[i - 1] < candidate < heights[i + 1]:
            heights[i] = candidate
        else:
            heights[i] = self._linear(i, sign)
        self._n[i] += sign

    def _parabolic(self, i: int, sign: int) -> float:
        assert self._heights is not None and self._n is not None
        h, n = self._heights, self._n
        return h[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, sign: int) -> float:
        assert self._heights is not None and self._n is not None
        h, n = self._heights, self._n
        return h[i] + sign * (h[i + sign] - h[i]) / (n[i + sign] - n[i])

    def value(self) -> float:
        """Current quantile estimate; NaN before any samples."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return float("nan")
        return percentile(self._initial, self.q * 100.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"P2Quantile(q={self.q}, n={self.count}, est={self.value():.3f})"


def percentile_profile(values: Sequence[float], pcts: Iterable[float] = (50, 90, 99, 99.9)) -> dict:
    """Several percentiles at once, as a dict keyed by percentile."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {p: float("nan") for p in pcts}
    return {p: float(np.percentile(arr, p)) for p in pcts}
