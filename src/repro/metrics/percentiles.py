"""Percentile utilities.

The paper reports 99.9th-percentile latency and slowdown.  We use the
nearest-rank definition (inclusive linear interpolation via numpy) and
also provide a streaming reservoir-free P² quantile estimator for
long-running monitors where storing every sample is undesirable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

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
        self.count = 0

    def update(self, x: float) -> None:
        self.update_many((x,))

    def update_many(self, xs: Sequence[float]) -> None:
        """Feed every value of ``xs``, in order, with the markers in
        locals for the whole block.  The float operations are the
        textbook loop's, in its order, so the markers come out
        bit-identical however a stream is split into blocks."""
        self.count += len(xs)
        it = iter(xs)
        if self._heights is None:
            initial = self._initial
            for x in it:
                initial.append(x)
                if len(initial) == 5:
                    initial.sort()
                    self._heights = list(initial)
                    self._n = [0, 1, 2, 3, 4]
                    q = self.q
                    self._np = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
                    break
            else:
                return
        h0, h1, h2, h3, h4 = self._heights
        # Marker 0's positions stay 0, so they are left out; marker 4's
        # position and desired position both start at 4 and gain 1 per
        # value, so they are one number.  Positions are held as floats,
        # exact for integers below 2**53, so every operation is float.
        _, n1, n2, n3, _ = map(float, self._n)
        _, np1, np2, np3, n4 = self._np
        # Per-value moves of the middle desired positions.
        q = self.q
        dn1, dn2, dn3 = q / 2, q, (1 + q) / 2
        for x in it:
            # Find x's cell, clamp the extremes and move the positions
            # above it.  The comparisons run in the textbook's order, so
            # an unordered x (NaN) still lands in cell 0.
            if x < h0:
                h0 = x
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x >= h4:
                h4 = x
            elif x < h1:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x < h2:
                n2 += 1.0
                n3 += 1.0
            elif x < h3:
                n3 += 1.0
            elif not x < h4:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            n4 += 1.0
            np1 += dn1
            np2 += dn2
            np3 += dn3
            # Move each middle marker one position toward its desired
            # position, in order: each move changes a position the next
            # marker reads.  Parabolic prediction, linear as fallback.
            d = np1 - n1
            if (d >= 1.0 and n2 - n1 > 1.0) or (d <= -1.0 and n1 > 1.0):
                s = 1.0 if d > 0.0 else -1.0
                c = h1 + s / n2 * (
                    (n1 + s) * (h2 - h1) / (n2 - n1) + (n2 - n1 - s) * (h1 - h0) / n1
                )
                if h0 < c < h2:
                    h1 = c
                elif s > 0.0:
                    h1 = h1 + s * (h2 - h1) / (n2 - n1)
                else:
                    h1 = h1 + s * (h0 - h1) / -n1
                n1 += s
            d = np2 - n2
            if (d >= 1.0 and n3 - n2 > 1.0) or (d <= -1.0 and n1 - n2 < -1.0):
                s = 1.0 if d > 0.0 else -1.0
                c = h2 + s / (n3 - n1) * (
                    (n2 - n1 + s) * (h3 - h2) / (n3 - n2)
                    + (n3 - n2 - s) * (h2 - h1) / (n2 - n1)
                )
                if h1 < c < h3:
                    h2 = c
                elif s > 0.0:
                    h2 = h2 + s * (h3 - h2) / (n3 - n2)
                else:
                    h2 = h2 + s * (h1 - h2) / (n1 - n2)
                n2 += s
            d = np3 - n3
            if (d >= 1.0 and n4 - n3 > 1.0) or (d <= -1.0 and n2 - n3 < -1.0):
                s = 1.0 if d > 0.0 else -1.0
                c = h3 + s / (n4 - n2) * (
                    (n3 - n2 + s) * (h4 - h3) / (n4 - n3)
                    + (n4 - n3 - s) * (h3 - h2) / (n3 - n2)
                )
                if h2 < c < h4:
                    h3 = c
                elif s > 0.0:
                    h3 = h3 + s * (h4 - h3) / (n4 - n3)
                else:
                    h3 = h3 + s * (h2 - h3) / (n2 - n3)
                n3 += s
        self._heights = [h0, h1, h2, h3, h4]
        self._n = [0, int(n1), int(n2), int(n3), int(n4)]
        self._np = [0.0, np1, np2, np3, n4]

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
