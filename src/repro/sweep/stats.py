"""Replication statistics: Student-t confidence intervals over seeds.

Tail percentiles from one finite run are noisy; a sweep that replicates
each cell under ≥3 independent seeds can put honest error bars on every
headline number.  With a handful of replicates the normal approximation
underestimates the interval badly, so this module uses the Student-t
distribution with ``n - 1`` degrees of freedom.  The capacity rule,
:func:`capacity_at_slo`, judges load points by these statistics; figure
drivers and ``repro-sweep merge`` both call it.

No SciPy dependency: two-sided critical values are tabulated for the
three conventional confidence levels at every df ≤ 30 (exact to 3–4
decimals), falling back to the normal quantile beyond — where the t
distribution is within ~2% of normal anyway.  The tables make the math
a pure, dependency-free function of its inputs, which matters because
this code runs inside the sweep *aggregation* layer and is bound by the
observer-purity contract (analyzer A301).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

#: Two-sided Student-t critical values t_{df, (1+c)/2} per confidence c.
_T_TABLE: Dict[float, Tuple[float, ...]] = {
    # index 0 -> df=1, index 29 -> df=30
    0.90: (
        6.3138, 2.9200, 2.3534, 2.1318, 2.0150, 1.9432, 1.8946, 1.8595,
        1.8331, 1.8125, 1.7959, 1.7823, 1.7709, 1.7613, 1.7531, 1.7459,
        1.7396, 1.7341, 1.7291, 1.7247, 1.7207, 1.7171, 1.7139, 1.7109,
        1.7081, 1.7056, 1.7033, 1.7011, 1.6991, 1.6973,
    ),
    0.95: (
        12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
        2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
        2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
        2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
    ),
    0.99: (
        63.6567, 9.9248, 5.8409, 4.6041, 4.0321, 3.7074, 3.4995, 3.3554,
        3.2498, 3.1693, 3.1058, 3.0545, 3.0123, 2.9768, 2.9467, 2.9208,
        2.8982, 2.8784, 2.8609, 2.8453, 2.8314, 2.8188, 2.8073, 2.7969,
        2.7874, 2.7787, 2.7707, 2.7633, 2.7564, 2.7500,
    ),
}

#: Normal quantiles z_{(1+c)/2} used past the tabulated range.
_Z_FALLBACK: Dict[float, float] = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}

SUPPORTED_CONFIDENCES = tuple(sorted(_T_TABLE))


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    table = _T_TABLE.get(confidence)
    if table is None:
        raise ValueError(
            f"confidence must be one of {SUPPORTED_CONFIDENCES}, got {confidence}"
        )
    if df <= len(table):
        return table[df - 1]
    return _Z_FALLBACK[confidence]


class CIStat(NamedTuple):
    """Mean with a Student-t confidence interval over replicates."""

    n: int
    mean: float
    std: float
    half_width: float
    low: float
    high: float
    confidence: float

    def format(self, precision: int = 1) -> str:
        if self.n == 0 or self.mean != self.mean:
            return "-"
        if self.n == 1:
            return f"{self.mean:.{precision}f}"
        return f"{self.mean:.{precision}f}±{self.half_width:.{precision}f}"


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> CIStat:
    """Mean and Student-t CI of ``values`` (NaNs dropped).

    A single surviving value yields a degenerate zero-width interval; an
    empty input yields NaNs throughout.  Both cases keep ``n`` honest so
    callers can decide whether the interval is credible.
    """
    clean = [float(v) for v in values if v == v]
    n = len(clean)
    if n == 0:
        nan = float("nan")
        return CIStat(0, nan, nan, nan, nan, nan, confidence)
    mean = math.fsum(clean) / n
    if n == 1:
        return CIStat(1, mean, 0.0, 0.0, mean, mean, confidence)
    var = math.fsum((v - mean) ** 2 for v in clean) / (n - 1)
    std = math.sqrt(var)
    half = t_critical(n - 1, confidence) * std / math.sqrt(n)
    return CIStat(n, mean, std, half, mean - half, mean + half, confidence)


def capacity_at_slo(
    points: Iterable[Tuple[float, CIStat, bool]], slo: float
) -> Optional[float]:
    """The highest load whose mean metric meets ``slo``; None if none does.

    ``points`` are ``(rho, stat, dropped)`` per load point.  The paper
    states its results this way ("DARC sustains 2.35x more load than
    Shenango at 20x slowdown").  A point qualifies on its replicate-mean
    metric; a NaN mean never qualifies, and neither does a point where
    any request was dropped — a system shedding load has passed its
    capacity even if the survivors look fast.  A single seed is the
    ``n = 1`` case, whose mean is the run's value exactly.
    """
    best: Optional[float] = None
    for rho, stat, dropped in points:
        if dropped or not stat.mean <= slo:  # NaN fails the comparison
            continue
        if best is None or rho > best:
            best = rho
    return best
