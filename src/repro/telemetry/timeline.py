"""The :class:`MetricsTimeline` — scrape history on virtual time.

One timeline records the value of every registry series at every scrape,
*change-compressed*: a series contributes a point only when its value
differs from its previous point.  Queue-depth gauges that sit at zero
for half the run cost two points, not thousands — which is what keeps a
long chaos run's metrics file proportional to activity, not duration.

Series values expand back to step functions (the value holds until the
next recorded change), which is also exactly how the dashboard's
sparklines draw them.

A scrape walks flat lists of ``(points, series)`` pairs, one per
counter or gauge and one ``(count points, sum points, histogram)``
triple per histogram.  They are rebuilt, in the registry's family
order, only when the registry's series count changes, so a steady-state
scrape does no key or generator work.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .registry import HISTOGRAM


class SeriesTrack:
    """One series' change-points over the scrape history."""

    __slots__ = ("key", "family", "points")

    def __init__(self, key: str, family: str):
        self.key = key
        #: The owning metric family name (``lat_us`` for ``lat_us_count``).
        self.family = family
        #: ``(scrape_index, value)`` — appended only on change.
        self.points: List[Tuple[int, float]] = []

    @property
    def last_value(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    def value_at(self, scrape_index: int) -> Optional[float]:
        """Step-function value at ``scrape_index`` (None before the first
        point — the series did not exist yet)."""
        value: Optional[float] = None
        for idx, v in self.points:
            if idx > scrape_index:
                break
            value = v
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeriesTrack({self.key}, points={len(self.points)})"


class MetricsTimeline:
    """Change-compressed history of every metric across one run."""

    def __init__(self) -> None:
        #: Virtual timestamp of each scrape, in order.
        self.times: List[float] = []
        #: series key -> track, in first-appearance order.
        self.series: Dict[str, SeriesTrack] = {}
        # The bound walk: (points, counter or gauge) and (count points,
        # sum points, histogram), for a registry of _bound_count series.
        self._scalars: List[Tuple[List[Tuple[int, float]], Any]] = []
        self._histograms: List[Tuple[list, list, Any]] = []
        self._bound_count = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, now: float, registry) -> int:
        """Append one scrape of ``registry`` at virtual time ``now``.

        Returns the number of change-points written.
        """
        index = len(self.times)
        self.times.append(now)
        if len(registry) != self._bound_count:
            self._bind(registry)
        changed = 0
        for points, metric in self._scalars:
            value = metric.value
            if not points or points[-1][1] != value:
                points.append((index, value))
                changed += 1
        for count_points, sum_points, histogram in self._histograms:
            count = histogram.count
            if not count_points or count_points[-1][1] != count:
                count_points.append((index, float(count)))
                changed += 1
            total = histogram.sum
            if not sum_points or sum_points[-1][1] != total:
                sum_points.append((index, total))
                changed += 1
        return changed

    def _bind(self, registry) -> None:
        """Rebuild the walk over every series of ``registry``, creating
        the tracks of new series in the order
        :meth:`~repro.telemetry.registry.MetricsRegistry.sample_items`
        yields them."""
        scalars: List[Tuple[List[Tuple[int, float]], Any]] = []
        histograms: List[Tuple[list, list, Any]] = []
        for family, kind, _help, metrics in registry.families():
            for metric in metrics:
                points = []
                for key, _value in metric.sample_items():
                    track = self.series.get(key)
                    if track is None:
                        track = self.series[key] = SeriesTrack(key, family)
                    points.append(track.points)
                if kind == HISTOGRAM:
                    histograms.append((points[0], points[1], metric))
                else:
                    scalars.append((points[0], metric))
        self._scalars = scalars
        self._histograms = histograms
        self._bound_count = len(registry)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def n_scrapes(self) -> int:
        return len(self.times)

    def changes_at(self, scrape_index: int) -> Dict[str, float]:
        """Every series change recorded at one scrape (for JSONL rows)."""
        out: Dict[str, float] = {}
        for key, track in self.series.items():
            for idx, value in track.points:
                if idx == scrape_index:
                    out[key] = value
                elif idx > scrape_index:
                    break
        return out

    def expand(self, key: str) -> List[Tuple[float, float]]:
        """One series as explicit ``(time, value)`` step points."""
        track = self.series.get(key)
        if track is None:
            return []
        return [(self.times[idx], value) for idx, value in track.points]

    def final_values(self) -> Dict[str, float]:
        """Last recorded value of every series, in appearance order."""
        return {
            key: track.points[-1][1]
            for key, track in self.series.items()
            if track.points
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsTimeline(scrapes={len(self.times)}, "
            f"series={len(self.series)})"
        )
