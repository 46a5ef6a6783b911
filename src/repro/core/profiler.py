"""Workload profiling for DARC (§3 "Profiling the workload", §4.3.3).

The dispatcher maintains, per request type, a moving average of service
time (the S_i of Eq. 1) and an occurrence count within the current
*profiling window* (the R_i).  Completions feed :meth:`WorkloadProfiler.observe`;
reservation updates read the window's entries
(:meth:`WorkloadProfiler.window_entries`) and open a new window.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigurationError
from .grouping import TypeEntry, demand_total


def _mean_of(entry: TypeEntry) -> float:
    return entry[1]


class TypeProfile:
    """Online statistics for one request type."""

    __slots__ = ("type_id", "ema_service", "window_count", "total_count")

    def __init__(self, type_id: int):
        self.type_id = type_id
        #: Exponential moving average of observed service times (us).
        self.ema_service: Optional[float] = None
        #: Completions observed in the current profiling window.
        self.window_count = 0
        #: Completions observed since the profiler was created.
        self.total_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TypeProfile(type={self.type_id}, S~{self.ema_service}, "
            f"window={self.window_count}, total={self.total_count})"
        )


class ProfileSnapshot:
    """An immutable ``(type_id, mean_service, occurrence_ratio)`` table.

    Ratios are relative to the window the snapshot closed; types with no
    observations in the window are omitted (they fall back to the
    spillway until they reappear — Fig. 7 phase 4).
    """

    def __init__(self, entries: List[TypeEntry]):
        self.entries = sorted(entries, key=_mean_of)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def type_ids(self) -> List[int]:
        return [tid for tid, _, _ in self.entries]

    def mean_service(self, type_id: int) -> Optional[float]:
        for tid, mean, _ in self.entries:
            if tid == type_id:
                return mean
        return None

    def demand_shares(self) -> Dict[int, float]:
        """Δ_i per Eq. 1: S_i R_i / Σ_j S_j R_j."""
        total = demand_total(self.entries)
        if total <= 0:
            return {tid: 0.0 for tid, _, _ in self.entries}
        return {tid: mean * ratio / total for tid, mean, ratio in self.entries}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProfileSnapshot({self.entries})"


class WorkloadProfiler:
    """Accumulates per-type profiles across profiling windows.

    Parameters
    ----------
    ema_alpha:
        Smoothing factor of the service-time moving average.  Larger
        values adapt faster to workload changes (Fig. 7) at the cost of
        noise sensitivity.
    """

    def __init__(self, ema_alpha: float = 0.05):
        if not 0.0 < ema_alpha <= 1.0:
            raise ConfigurationError(f"ema_alpha must be in (0,1], got {ema_alpha}")
        self.ema_alpha = ema_alpha
        self.profiles: Dict[int, TypeProfile] = {}
        self.window_samples = 0
        self.windows_closed = 0

    def observe(self, type_id: int, service_us: float) -> float:
        """Record one completed request of ``type_id`` and return the
        type's updated mean service time.

        The paper measured this at ~75 cycles in the C++ prototype; here
        it is one EMA update and three counter increments, in one call
        (DARC makes it on every completion).
        """
        profile = self.profiles.get(type_id)
        if profile is None:
            profile = TypeProfile(type_id)
            self.profiles[type_id] = profile
        ema = profile.ema_service
        if ema is None:
            ema = service_us
        else:
            ema += self.ema_alpha * (service_us - ema)
        profile.ema_service = ema
        profile.window_count += 1
        profile.total_count += 1
        self.window_samples += 1
        return ema

    def mean_service(self, type_id: int) -> Optional[float]:
        profile = self.profiles.get(type_id)
        return profile.ema_service if profile else None

    def window_entries(self) -> List[TypeEntry]:
        """The current window as ``(type_id, mean_service, ratio)``
        entries: types seen this window, their EMA service times and
        window occurrence ratios, stable-sorted by mean (ties keep the
        order the types were first seen).

        :meth:`snapshot` wraps these; DARC's breach re-check reads them
        directly, with no snapshot or share dict.
        """
        total = self.window_samples
        entries: List[TypeEntry] = []
        for p in self.profiles.values():
            if p.window_count > 0:
                entries.append((p.type_id, p.ema_service, p.window_count / total))
        entries.sort(key=_mean_of)
        return entries

    def snapshot(self) -> ProfileSnapshot:
        """Close over the current window (:meth:`window_entries`)."""
        return ProfileSnapshot(self.window_entries())

    def reset_window(self) -> None:
        """Open the next profiling window (counts reset, EMAs persist)."""
        for p in self.profiles.values():
            p.window_count = 0
        self.window_samples = 0
        self.windows_closed += 1

    def seed(self, type_id: int, mean_service: float, weight: int = 1) -> None:
        """Pre-load a profile (oracle configurations and tests)."""
        profile = self.profiles.get(type_id)
        if profile is None:
            profile = TypeProfile(type_id)
            self.profiles[type_id] = profile
        profile.ema_service = mean_service
        profile.window_count += weight
        profile.total_count += weight
        self.window_samples += weight

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkloadProfiler(alpha={self.ema_alpha}, types={len(self.profiles)}, "
            f"window={self.window_samples})"
        )
