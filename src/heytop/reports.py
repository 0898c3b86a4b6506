"""Structured law-check reports.

A LawReport records the outcome of one quantified law check: the law id,
a status, the exact degree when one was computed (as an algebra element
name, never a numeral), the witness achieving the minimal degree when the
law fails, and free-form details.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HOLDS = "holds"
FAILS = "fails"
NO_COUNTEREXAMPLE = "no-counterexample-found"


@dataclass
class LawReport:
    law: str
    status: str
    degree: str | None = None
    witness: tuple | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.status in (HOLDS, NO_COUNTEREXAMPLE)

    def render(self):
        parts = [f"law {self.law}: {self.status}"]
        if self.degree is not None:
            parts.append(f"degree={self.degree}")
        line = "  ".join(parts)
        lines = [line]
        if self.witness is not None:
            lines.append("  witness: " + ", ".join(str(w) for w in self.witness))
        for key in sorted(self.details):
            lines.append(f"  {key}: {self.details[key]}")
        return "\n".join(lines)
