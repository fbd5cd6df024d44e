"""Structured pass/fail reports with witness forms.

Reports are immutable values: a stable statement id, a status, per-check rows
and any witness forms needed to re-check a refutation or strict inclusion
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .forms import Form, format_form

VERIFIED = "verified"
REFUTED = "refuted"
NOT_APPLICABLE = "not-applicable"


@dataclass
class CheckItem:
    name: str
    ok: bool
    witness: Form | None = None
    residual: Form | None = None
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "ok": self.ok}
        if self.witness is not None:
            out["witness"] = format_form(self.witness)
        if self.residual is not None:
            out["residual"] = format_form(self.residual)
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    statement: str
    status: str
    items: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    notes: str = ""

    @classmethod
    def from_items(cls, statement: str, items: list, **fields) -> "VerificationReport":
        """Verified when every item holds, refuted otherwise."""
        status = VERIFIED if all(i.ok for i in items) else REFUTED
        return cls(statement, status, items=items, **fields)

    @property
    def ok(self) -> bool:
        return self.status == VERIFIED

    def first_failure(self) -> CheckItem | None:
        for item in self.items:
            if not item.ok:
                return item
        return None

    def to_dict(self) -> dict:
        out: dict = {"statement": self.statement, "status": self.status}
        if self.items:
            out["checks"] = [i.to_dict() for i in self.items]
        if self.data:
            out["data"] = {
                k: (format_form(v) if isinstance(v, Form) else v)
                for k, v in self.data.items()
            }
        if self.witnesses:
            out["witnesses"] = [format_form(w) for w in self.witnesses]
        if self.notes:
            out["notes"] = self.notes
        return out
