"""The metrics registry: Counters, Gauges and Histograms on virtual time.

The registry is the *aggregate* counterpart of :mod:`repro.trace`: where
the tracer answers "what happened to request X", the registry answers
"what did the system look like" — totals, levels and distributions, each
identified by a metric *family* (name, kind, help text) and a sorted
label set, exactly as the Prometheus exposition format models them.

Everything here lives on **virtual time**: values are updated by
instrumentation hooks and pull sources driven from simulated events, and
are timestamped with ``EventLoop.now`` by the scrape loop
(:class:`~repro.telemetry.probe.TelemetryProbe`).  No wall clock, no
randomness, no event scheduling — attaching telemetry cannot perturb a
run (``tests/telemetry/test_determinism.py`` proves digests identical
with it on or off).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import TelemetryError

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

_KINDS = (COUNTER, GAUGE, HISTOGRAM)


def series_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Canonical ``name{k="v",...}`` identity of one labelled series."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


def _freeze_labels(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple((key, str(labels[key])) for key in sorted(labels))


def _call_key(kind: str, name: str, labels: Dict[str, object]) -> Optional[tuple]:
    """The lookup-cache key of one get-or-create call, or None.

    Only ``str`` and ``int`` label values are cached: they hash, and two
    of them compare equal only when they print alike.  ``1``, ``1.0``
    and ``True`` compare equal but freeze to different labels, and an
    unhashable value cannot be a key at all, so those calls take the
    uncached path every time.
    """
    for value in labels.values():
        if type(value) is not str and type(value) is not int:
            return None
    return (kind, name, tuple(labels.items()))


def log_spaced_bounds(
    lo_exp: int = -1, hi_exp: int = 7, per_decade: int = 3
) -> Tuple[float, ...]:
    """Fixed log-spaced histogram bucket bounds, ``10**(k/per_decade)``
    from ``10**lo_exp`` to ``10**hi_exp`` inclusive.

    The defaults cover 0.1 us to 10 s — the full span from sub-dispatch
    costs to badly stalled tails — in 25 buckets (plus overflow).
    """
    if per_decade < 1:
        raise TelemetryError(f"per_decade must be >= 1, got {per_decade}")
    if hi_exp <= lo_exp:
        raise TelemetryError(f"need hi_exp > lo_exp, got {lo_exp}..{hi_exp}")
    return tuple(
        10.0 ** (k / per_decade)
        for k in range(lo_exp * per_decade, hi_exp * per_decade + 1)
    )


#: The default latency-histogram bounds (microseconds).
DEFAULT_BOUNDS = log_spaced_bounds()


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "labels", "key", "value")

    kind = COUNTER

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        #: The canonical series key, formatted once.
        self.key = series_key(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.key} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def set_total(self, value: float) -> None:
        """Adopt an externally maintained running total (pull sources).

        The total may repeat but never move backwards.
        """
        if value < self.value:
            raise TelemetryError(
                f"counter {self.key} cannot decrease "
                f"({self.value} -> {value})"
            )
        self.value = value

    def sample_items(self) -> Iterator[Tuple[str, float]]:
        yield self.key, self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.key}={self.value})"


class Gauge:
    """An instantaneous level; goes up and down."""

    __slots__ = ("name", "labels", "key", "value")

    kind = GAUGE

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.key = series_key(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def sample_items(self) -> Iterator[Tuple[str, float]]:
        yield self.key, self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.key}={self.value})"


class Histogram:
    """A distribution over fixed log-spaced (or caller-chosen) buckets.

    Buckets are *fixed at construction* — never rebalanced — so two runs
    observing the same values produce identical bucket vectors, and the
    memory footprint is constant regardless of sample count.
    """

    __slots__ = (
        "name",
        "labels",
        "key",
        "_count_key",
        "_sum_key",
        "bounds",
        "bucket_counts",
        "count",
        "sum",
    )

    kind = HISTOGRAM

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        bounds: Optional[Tuple[float, ...]] = None,
    ):
        if bounds is None:
            bounds = DEFAULT_BOUNDS
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise TelemetryError(f"histogram {name} needs at least one bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(f"histogram {name} bounds must be ascending")
        self.name = name
        self.labels = labels
        self.key = series_key(name, labels)
        self._count_key = series_key(name + "_count", labels)
        self._sum_key = series_key(name + "_sum", labels)
        self.bounds = bounds
        #: Per-bucket counts; the final slot is the overflow (+Inf) bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def sample_items(self) -> Iterator[Tuple[str, float]]:
        """Timeline view: the derived ``_count`` and ``_sum`` series."""
        yield self._count_key, float(self.count)
        yield self._sum_key, self.sum

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.key}, n={self.count}, sum={self.sum:.1f})"


#: A pull source: called at every scrape with (registry, virtual_now).
SourceFn = Callable[["MetricsRegistry", float], None]


class MetricsRegistry:
    """Get-or-create home for every metric of one run.

    Families and series are kept in insertion order (deterministic —
    instrumentation sites fire in event order), and label sets are
    sorted, so exports are byte-stable across same-seed runs.
    """

    def __init__(self) -> None:
        #: family name -> (kind, help)
        self._families: Dict[str, Tuple[str, str]] = {}
        #: series key -> metric object
        self._series: Dict[str, object] = {}
        #: family name -> series keys in creation order
        self._family_series: Dict[str, List[str]] = {}
        #: raw call (kind, name, label items as passed) -> series; see
        #: :func:`_call_key`.
        self._calls: Dict[tuple, object] = {}
        self._sources: List[SourceFn] = []

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def _register_family(self, kind: str, name: str, help_text: str) -> None:
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, help_text)
            self._family_series[name] = []
        elif family[0] != kind:
            raise TelemetryError(
                f"metric {name!r} already registered as {family[0]}, "
                f"requested as {kind}"
            )
        elif help_text and not family[1]:
            self._families[name] = (kind, help_text)

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        call = _call_key(COUNTER, name, labels)
        metric = self._calls.get(call)
        if metric is None:
            metric = self._get_or_create(call, Counter, name, help, labels)
        return metric

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        call = _call_key(GAUGE, name, labels)
        metric = self._calls.get(call)
        if metric is None:
            metric = self._get_or_create(call, Gauge, name, help, labels)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Tuple[float, ...]] = None,
        **labels: object,
    ) -> Histogram:
        call = _call_key(HISTOGRAM, name, labels)
        metric = self._calls.get(call)
        if metric is None:
            metric = self._get_or_create(call, Histogram, name, help, labels, bounds)
        return metric

    def _get_or_create(
        self,
        call: Optional[tuple],
        cls: type,
        name: str,
        help_text: str,
        labels: Dict[str, object],
        *extra: object,
    ):
        """The uncached lookup: freeze the labels, build the key, check
        the kind, register the family on first use.  A series that
        already exists keeps its help text and bounds, so a cache hit
        that skips this path changes nothing."""
        frozen = _freeze_labels(labels)
        key = series_key(name, frozen)
        metric = self._series.get(key)
        if metric is None:
            self._register_family(cls.kind, name, help_text)
            metric = cls(name, frozen, *extra)
            self._series[key] = metric
            self._family_series[name].append(key)
        elif metric.kind != cls.kind:
            raise TelemetryError(f"series {key} is a {metric.kind}, not a {cls.kind}")
        if call is not None:
            self._calls[call] = metric
        return metric

    # ------------------------------------------------------------------
    # pull sources + collection
    # ------------------------------------------------------------------
    def register_source(self, source: SourceFn) -> None:
        """Register a pull callback run at every scrape, in order."""
        self._sources.append(source)

    def collect(self, now: float) -> None:
        """Run every pull source against the current simulated state."""
        for source in self._sources:
            source(self, now)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def families(self) -> List[Tuple[str, str, str, List[object]]]:
        """``(name, kind, help, [series...])`` in registration order."""
        return [
            (name, kind, help_text, [self._series[k] for k in self._family_series[name]])
            for name, (kind, help_text) in self._families.items()
        ]

    def series(self) -> List[object]:
        """Every metric series in registration order."""
        return list(self._series.values())

    def get(self, key: str):
        """Series by canonical key, or None."""
        return self._series.get(key)

    def sample_items(self) -> Iterator[Tuple[str, str, float]]:
        """``(series_key, family_name, value)`` for the timeline: one
        entry per counter/gauge, two (``_count``/``_sum``) per histogram."""
        for name in self._families:
            for key in self._family_series[name]:
                metric = self._series[key]
                for item_key, value in metric.sample_items():
                    yield item_key, name, value

    def family_total(self, name: str) -> float:
        """Sum of every series value in one counter/gauge family."""
        keys = self._family_series.get(name)
        if not keys:
            return 0.0
        return sum(self._series[k].value for k in keys)

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsRegistry(families={len(self._families)}, "
            f"series={len(self._series)}, sources={len(self._sources)})"
        )
