"""Markdown experiment reports.

Turns measured series, bound checks and scenario summaries into the
paper-vs-measured markdown blocks used in ``EXPERIMENTS.md`` — so the
record stays regenerable from code rather than hand-edited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.validation import BoundCheck

__all__ = ["ExperimentReport", "markdown_table"]


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A GitHub-flavoured markdown table."""
    if not headers:
        raise ValueError("need at least one column")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row!r} does not match headers {headers!r}")

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines)


@dataclass
class ExperimentReport:
    """One experiment's regenerable record."""

    exp_id: str
    title: str
    paper_claim: str
    sections: List[str] = field(default_factory=list)
    checks: List[BoundCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_table(self, caption: str, headers: Sequence[str],
                  rows: Sequence[Sequence]) -> None:
        self.sections.append(f"**{caption}**\n\n"
                             + markdown_table(headers, rows))

    def add_check(self, check: BoundCheck) -> None:
        self.checks.append(check)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    # ------------------------------------------------------------------
    @property
    def verdict(self) -> str:
        if not self.checks:
            return "MEASURED"
        return "REPRODUCED" if all(c.holds for c in self.checks) else "FAILED"

    def to_markdown(self) -> str:
        parts = [f"## {self.exp_id} — {self.title}",
                 "",
                 f"**Paper claim.** {self.paper_claim}",
                 ""]
        for section in self.sections:
            parts.extend([section, ""])
        if self.checks:
            rows = [[c.name, f"{c.worst:.3f}",
                     ("<" if c.strict else "<=") + f" {c.bound:.3f}",
                     f"{c.tightness:.0%}", "OK" if c.holds else "VIOLATED"]
                    for c in self.checks]
            parts.extend([markdown_table(
                ["check", "worst measured", "bound", "tightness", "status"],
                rows), ""])
        for note in self.notes:
            parts.extend([f"*{note}*", ""])
        parts.append(f"**Verdict: {self.verdict}.**")
        return "\n".join(parts)


def combine_reports(reports: Sequence[ExperimentReport],
                    header: Optional[str] = None) -> str:
    """Concatenate experiment reports with a summary table on top."""
    parts: List[str] = []
    if header:
        parts.extend([header, ""])
    summary_rows = [[r.exp_id, r.title, r.verdict] for r in reports]
    parts.extend([markdown_table(["exp", "title", "verdict"], summary_rows),
                  ""])
    for report in reports:
        parts.extend([report.to_markdown(), "", "---", ""])
    return "\n".join(parts)
