"""Small result records shared by the verification entry points."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class Verdict:
    """The "pass"/"fail" spelling of a report's ``passed`` flag."""

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass
class CheckReport(Verdict):
    """Outcome of a single mechanical check; failure is data, not an exception."""

    name: str
    params: dict
    passed: bool
    detail: str | None = None

    def to_json_dict(self) -> dict:
        return {"check": self.name, "params": self.params,
                "verdict": self.verdict, "detail": self.detail}


@dataclass
class TheoremReport(Verdict):
    """Verdict for one symmetry theorem at one parameter point."""

    theorem: int
    params: dict
    expressions: list = field(default_factory=list)
    passed: bool = True
    detail: str | None = None
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"theorem": self.theorem, "params": self.params,
                               "verdict": self.verdict, "detail": self.detail}
        if self.notes:
            out["notes"] = self.notes
        return out
