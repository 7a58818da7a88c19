"""Small result records shared by the verification entry points, and the
one detail that every failed equality check reports.

The records are plain ``__slots__`` classes, not dataclasses: a CLI run
is a fresh process, and ``dataclasses`` would import ``inspect`` at every
start for records that need only their fields."""

from __future__ import annotations

from . import sympoly


class Verdict:
    """The "pass"/"fail" spelling of a report's ``passed`` flag."""

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


class ReadOnly:
    """A record whose ``__init__`` sets its slots through
    ``object.__setattr__``; any later assignment or deletion raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


class CheckReport(Verdict):
    """Outcome of a single mechanical check; failure is data, not an exception.
    ``compared``, where a check plans its forms, is the number of distinct
    forms it built and compared (see TheoremReport); it is not rendered."""

    __slots__ = ("name", "params", "passed", "detail", "compared")

    def __init__(self, name: str, params: dict, passed: bool,
                 detail: str | None = None, compared: int | None = None):
        self.name = name
        self.params = params
        self.passed = passed
        self.detail = detail
        self.compared = compared

    def to_json_dict(self) -> dict:
        return {"check": self.name, "params": self.params,
                "verdict": self.verdict, "detail": self.detail}


class TheoremReport(Verdict):
    """Verdict for one symmetry theorem at one parameter point.  ``forms``
    are the forms (scales, F) its check built, one per plan, and
    ``expressions`` one SymPoly per displayed expression, the lift at n of
    form at[j] (``sympoly.lift``), listed at the first read.  ``lift(k)``
    lifts form k once and keeps it, so the lifts a failing check makes
    for ``first_mismatch`` are among those its expressions read.  ``compared``,
    the number of forms, 1 means that the pass rests on the plan (equal
    plans) and on ``cyclo.product`` not depending on the order of its
    factors, not on two products compared.  Neither is rendered by
    ``to_json_dict``."""

    __slots__ = ("theorem", "params", "forms", "at", "n", "_lifts",
                 "_expressions", "passed", "detail", "notes")

    def __init__(self, theorem: int, params: dict, forms: tuple = (),
                 at: tuple = (), n: int = 0, passed: bool = True,
                 detail: str | None = None, notes: dict | None = None):
        self.theorem = theorem
        self.params = params
        self.forms = forms
        self.at = at
        self.n = n
        self._lifts = None
        self._expressions = None
        self.passed = passed
        self.detail = detail
        self.notes = {} if notes is None else notes

    @property
    def compared(self) -> int:
        return len(self.forms)

    def lift(self, k: int):
        """The lift at n of forms[k], made at the first call for k."""
        if self._lifts is None:
            self._lifts = {}
        if k not in self._lifts:
            self._lifts[k] = sympoly.lift(*self.forms[k], self.n, 1)
        return self._lifts[k]

    @property
    def expressions(self) -> list:
        if self._expressions is None:
            self._expressions = [self.lift(k) for k in self.at]
        return self._expressions

    def to_json_dict(self) -> dict:
        out = {"theorem": self.theorem, "params": self.params,
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
