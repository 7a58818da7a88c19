"""Small result records shared by the verification entry points, and the
one detail that every failed equality check reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from . import sympoly


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
    """Verdict for one symmetry theorem at one parameter point; expressions
    holds one lift per distinct row form, shared by equal forms."""

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


def first_mismatch(pairs) -> str | None:
    """'<label> at <where>: <lhs coefficient> vs <rhs coefficient>' for the
    first unequal (label, lhs, rhs) of the lazy pairs, or None.  <where>
    names the first differing t^i of two coefficient tuples of one length,
    then the first differing monomial (in printing order) of two SymPolys."""
    for label, lhs, rhs in pairs:
        if lhs != rhs:
            where = []
            if isinstance(lhs, tuple):
                i = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                lhs, rhs = lhs[i], rhs[i]
                where.append(f"t^{i}")
            if isinstance(lhs, sympoly.SymPoly):
                key, lhs, rhs = sympoly.first_difference(lhs, rhs)
                where.append(sympoly.monomial(key))
            return f"{label} at {', '.join(where)}: {lhs} vs {rhs}"
    return None
