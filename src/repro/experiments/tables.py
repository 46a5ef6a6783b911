"""Plain-text tables, and the paper's table reproductions.

:func:`render_table` and :func:`render_series` print the rows and series
of the paper's tables and figures legibly without any plotting
dependency; every driver and ``repro-sweep merge`` renders through them.

* Table 1 — the four §2 policies and their taxonomy bits;
* Table 3 — the bimodal workload definitions;
* Table 4 — the TPC-C transaction profile;
* Table 5 — the full related-work policy comparison.

All rows are generated from code (policy ``traits`` metadata and workload
presets), so the tables cannot drift from the implementation.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..core.darc import DarcScheduler
from ..errors import ConfigurationError
from ..policies import all_policy_traits
from ..policies.base import PolicyTraits
from ..policies.fcfs import CentralizedFCFS, DecentralizedFCFS
from ..policies.timesharing import TimeSharing
from ..workload.presets import extreme_bimodal, high_bimodal, tpcc


def format_cell(value: Any, precision: int = 2) -> str:
    """Render one cell: floats to ``precision``, NaN as '-', bools as check
    marks (Table 1 style), everything else via str()."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Monospace table with column alignment."""
    if any(len(row) != len(headers) for row in rows):
        raise ConfigurationError("every row must match the header width")
    cells = [[format_cell(v, precision) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[float],
    series: dict,
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """A figure as text: one x column plus one column per named series."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(x_values):
        row: List[Any] = [x]
        for values in series.values():
            row.append(values[i] if i < len(values) else float("nan"))
        rows.append(row)
    return render_table(headers, rows, precision=precision, title=title)


#: The Table 1 subset, in the paper's row order.
TABLE1_POLICIES = (
    DecentralizedFCFS.traits,
    CentralizedFCFS.traits,
    TimeSharing.traits,
    DarcScheduler.traits,
)


def table1_rows() -> List[List[object]]:
    """Table 1: typed queues / non work conserving / non preemptive."""
    return [
        [
            t.name,
            t.typed_queues,
            not t.work_conserving,
            not t.preemptive,
            t.example_system,
        ]
        for t in TABLE1_POLICIES
    ]


def render_table1() -> str:
    return render_table(
        ["Policy", "Typed queues", "Non work conserving", "Non preemptive", "Example"],
        table1_rows(),
        title="Table 1: policy taxonomy",
    )


def table3_rows() -> List[List[object]]:
    """Table 3: the bimodal workload definitions, from the presets."""
    rows = []
    for spec in (high_bimodal(), extreme_bimodal()):
        short, long = spec.classes
        rows.append(
            [
                spec.name,
                short.distribution.mean(),
                short.ratio,
                long.distribution.mean(),
                long.ratio,
                spec.dispersion(),
            ]
        )
    return rows


def render_table3() -> str:
    return render_table(
        ["Workload", "Short (us)", "Short ratio", "Long (us)", "Long ratio", "Dispersion"],
        table3_rows(),
        title="Table 3: bimodal workloads",
    )


def table4_rows() -> List[List[object]]:
    """Table 4: the TPC-C mix, with dispersion relative to Payment."""
    spec = tpcc()
    base = spec.classes[0].distribution.mean()
    return [
        [c.name, c.distribution.mean(), c.ratio, c.distribution.mean() / base]
        for c in spec.classes
    ]


def render_table4() -> str:
    return render_table(
        ["Transaction", "Runtime (us)", "Ratio", "Dispersion"],
        table4_rows(),
        title="Table 4: TPC-C transactions",
    )


def table5_rows(traits: Sequence[PolicyTraits] = ()) -> List[List[object]]:
    """Table 5: the extended policy comparison, from traits metadata."""
    source = traits if traits else all_policy_traits()
    return [
        [
            t.name,
            t.app_aware,
            not t.preemptive,
            not t.work_conserving,
            t.prevents_hol_blocking,
            t.ideal_workload,
            t.comments,
        ]
        for t in source
    ]


def render_table5() -> str:
    return render_table(
        [
            "Policy",
            "App aware",
            "Non preemptive",
            "Non work conserving",
            "Prevents HOL",
            "Ideal workload",
            "Comments",
        ],
        table5_rows(),
        title="Table 5: policy comparison",
    )


def render_all() -> str:
    return "\n\n".join(
        [render_table1(), render_table3(), render_table4(), render_table5()]
    )
