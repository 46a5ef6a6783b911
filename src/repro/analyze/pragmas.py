"""Suppression-pragma parsing for ``repro-analyze``.

One comment grammar covers every rule family::

    t = time.time()          # repro-analyze: disable=A702
    self.rng = faults_rng    # repro-analyze: disable=A102,A103
    # repro-analyze: disable-file=A705   (first 10 lines only)

``disable=all`` suppresses every rule.  Pragmas are read from genuine
comment tokens only, so a pragma quoted inside a docstring is inert.
Unknown ids and misplaced ``disable-file`` comments are never fatal —
the tree under analysis may be broken in exactly the ways being
reported — they are collected in :attr:`PragmaSuppressions.errors` and
the runner reports them as A000.

The parser also keeps a usage ledger: the runner calls
:meth:`~PragmaSuppressions.is_suppressed` for every finding, and
:meth:`~PragmaSuppressions.unused` afterwards reports *stale*
suppressions — pragmas naming a rule that no longer fires on that line
(or anywhere in the file, for ``disable-file``).  Stale pragmas are
hazards in their own right: they read as "this line is exempt for a
reason" long after the reason is gone.  They are A000 findings too.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

#: How deep into a file a ``disable-file`` comment may appear.
FILE_PRAGMA_WINDOW = 10

PRAGMA_RE = re.compile(
    r"#\s*repro-analyze:\s*(?P<kind>disable|disable-file)\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+)"
)


class PragmaError(NamedTuple):
    """A malformed or unknown-id pragma, reported as A000."""

    line: int
    message: str


def iter_comments(source: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, text)`` for genuine comment tokens only."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return


def pragma_ids(comment: str) -> Optional[Tuple[str, Set[str]]]:
    """``(kind, upper-cased ids)`` of a pragma comment, or None."""
    match = PRAGMA_RE.search(comment)
    if match is None:
        return None
    ids = {part.strip().upper() for part in match.group("ids").split(",") if part.strip()}
    return match.group("kind"), ids


class PragmaSuppressions:
    """Parsed ``repro-analyze`` pragmas for one file.

    ``known_ids`` are the valid rule ids (``all`` is always accepted).
    """

    def __init__(self, source: str, known_ids: Sequence[str]):
        self._known = {rule_id.upper() for rule_id in known_ids}
        self.by_line: Dict[int, Set[str]] = {}
        self.file_wide: Set[str] = set()
        #: Unknown-id and misplaced pragmas, reported as A000.
        self.errors: List[PragmaError] = []
        #: (line, rule_id) pairs that absorbed at least one finding.
        self._used: Set[Tuple[int, str]] = set()
        for lineno, comment in iter_comments(source):
            parsed = pragma_ids(comment)
            if parsed is None:
                continue
            kind, ids = parsed
            bad = sorted(i for i in ids if i != "ALL" and i not in self._known)
            if bad:
                self.errors.append(
                    PragmaError(
                        lineno,
                        f"line {lineno}: unknown rule id "
                        f"{', '.join(repr(b) for b in bad)} in repro-analyze "
                        f"suppression (known: {', '.join(sorted(self._known))}, or 'all')",
                    )
                )
                ids -= set(bad)
                if not ids:
                    continue
            if kind == "disable-file":
                if lineno <= FILE_PRAGMA_WINDOW:
                    self.file_wide.update(ids)
                else:
                    self.errors.append(
                        PragmaError(
                            lineno,
                            f"line {lineno}: disable-file pragma must appear in the "
                            f"first {FILE_PRAGMA_WINDOW} lines",
                        )
                    )
            else:
                self.by_line.setdefault(lineno, set()).update(ids)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True when a finding of ``rule_id`` on ``line`` is absorbed.

        Marks the absorbing pragma used, feeding :meth:`unused`.
        """
        rule_id = rule_id.upper()
        if "ALL" in self.file_wide or rule_id in self.file_wide:
            self._used.add((0, rule_id if rule_id in self.file_wide else "ALL"))
            return True
        ids = self.by_line.get(line)
        if ids is None:
            return False
        if "ALL" in ids:
            self._used.add((line, "ALL"))
            return True
        if rule_id in ids:
            self._used.add((line, rule_id))
            return True
        return False

    def mark_used(self, line: int, rule_id: str) -> None:
        """Explicitly mark a pragma as live (for callers that filter
        findings themselves rather than via :meth:`is_suppressed`)."""
        self._used.add((line, rule_id.upper()))

    def unused(self, checked_ids: Optional[Sequence[str]] = None) -> List[Tuple[int, str]]:
        """Stale pragmas: ``(line, rule_id)`` pairs that absorbed nothing.

        ``checked_ids`` limits staleness judgement to rules that actually
        ran — a pragma for a rule outside the run's ``--select`` subset is
        never stale.  Line 0 denotes a file-wide pragma.
        """
        checked = None if checked_ids is None else {i.upper() for i in checked_ids}
        stale: List[Tuple[int, str]] = []
        for rule_id in sorted(self.file_wide):
            if checked is not None and rule_id != "ALL" and rule_id not in checked:
                continue
            if (0, rule_id) not in self._used:
                stale.append((0, rule_id))
        for line in sorted(self.by_line):
            for rule_id in sorted(self.by_line[line]):
                if checked is not None and rule_id != "ALL" and rule_id not in checked:
                    continue
                if (line, rule_id) not in self._used:
                    stale.append((line, rule_id))
        return stale

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PragmaSuppressions(lines={sorted(self.by_line)}, "
            f"file_wide={sorted(self.file_wide)})"
        )
