"""Per-layer tracing for the traced benchmark run, installed from outside.

``Tracer.install`` replaces functions and methods of the ``twistbern``
modules with timing wrappers; ``restore`` puts the originals back.  Nothing
under ``src/`` knows about it, and the untraced runs never import this file.

Each wrapper counts its calls and its self time: its duration minus the time
of wrapped calls made inside it.  The hot layers (``cyclo``, ``sympoly``,
``series``) are only aggregated, per check, as count plus self time; spans
are stored for checks and the run that contains them.

Three things the wrappers must cover:

* aliases: ``CycloNumber.__radd__``/``__rmul__`` and ``SymPoly.__radd__``/
  ``__rmul__`` are separate class attributes, so each gets its own wrapper;
* re-imported names: ``symmetry``, ``padic`` and ``cli`` hold their own
  references to functions of other modules, so every module attribute that
  *is* the original function is replaced;
* ``symmetry._THEOREM_PATTERNS`` holds the form functions directly, so time
  per theorem is taken at the ``verify_theorem`` call, grouped by id.
"""

from __future__ import annotations

import sys
import time

# Layers aggregated per check, as count plus self time.
HOT_STATS = ("cyclo.mul", "cyclo.add", "cyclo.inverse", "sympoly.mul",
             "sympoly.add", "series.mul", "series.invert", "series.exp_scaled")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, extra]
        self.hits: dict[str, int] = {}
        self.spans: list[dict] = []
        self._stack = [0.0]  # child time of each open wrapped call
        self._undo: list[tuple] = []
        self._check: dict | None = None
        self._cache_base: dict = {}

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0])

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, before=None, after=None):
        """A wrapper counting calls and self time of ``fn`` under ``name``.

        ``before(args)`` returns a state that ``after(args, state, dt)``
        turns into extra counters; both are for the colder layers only.
        """
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter

        if before is None:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - stack.pop()
                    stack[-1] += dt
        else:
            def wrapper(*args, **kwargs):
                state = before(args)
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - stack.pop()
                    stack[-1] += dt
                    after(args, state, dt)
        return wrapper

    def _cyclo_mul(self, fn, cls):
        # element x element products also add phi(L)^2 coefficient products
        stat = self.stat("cyclo.mul")
        stack = self._stack
        clock = time.perf_counter

        def wrapper(a, b):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(a, b)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt
                if type(b) is cls:
                    stat[2] += a.field.degree ** 2
        return wrapper

    def _hit_counter(self, name, size_of):
        """before/after hooks counting a call as a hit when the cache that
        ``size_of(args)`` measures did not change."""
        self.hits[name] = 0

        def after(args, state, dt):
            if size_of(args) == state:
                self.hits[name] += 1
        return size_of, after

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _method(self, cls, attrs, name, **hooks):
        for attr in attrs:
            self._set(cls, attr, self._timed(cls.__dict__[attr], name, **hooks))

    def _function(self, fn, name, **hooks):
        wrapper = self._timed(fn, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "twistbern" or mod_name.startswith("twistbern."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)
        return wrapper

    def install(self):
        from twistbern import (bernoulli, characters, cli, cyclo, padic,
                               series, symmetry, sympoly)
        num = cyclo.CycloNumber
        for attr in ("__mul__", "__rmul__"):
            self._set(num, attr, self._cyclo_mul(num.__dict__[attr], num))
        self._method(num, ("__add__", "__radd__", "__sub__"), "cyclo.add")
        self._method(num, ("inverse",), "cyclo.inverse")
        self._method(num, ("__truediv__",), "cyclo.div")
        self._method(cyclo.CycloField, ("root",), "cyclo.root")

        ps = series.PowerSeries
        self._method(ps, ("__mul__", "__rmul__"), "series.mul")
        self._method(ps, ("invert",), "series.invert")
        self._set(ps, "exp_scaled", classmethod(self._timed(
            ps.__dict__["exp_scaled"].__func__, "series.exp_scaled")))

        self._method(sympoly.SymPoly, ("__mul__", "__rmul__"), "sympoly.mul")
        self._method(sympoly.SymPoly, ("__add__", "__radd__"), "sympoly.add")

        self._function(characters.enumerate_characters, "characters.enumerate")

        self._method(bernoulli.TwistContext, ("__init__",), "bernoulli.context")
        before, after = self._hit_counter("bernoulli.table",
                                          lambda a: id(a[0]._bern))
        self._function(bernoulli._bern_values, "bernoulli.table",
                       before=before, after=after)
        self._function(bernoulli.char_sum_series, "bernoulli.char_sum")
        before, after = self._hit_counter("bernoulli.power_sum",
                                          lambda a: len(a[0]._psums))
        self._function(bernoulli.power_sum, "bernoulli.power_sum",
                       before=before, after=after)

        def theorem_time(args, state, dt):
            self.stat(f"symmetry.theorem_{args[0]}")[1] += dt
        self._function(symmetry.verify_theorem, "symmetry.verify",
                       before=lambda a: None, after=theorem_time)
        self._function(symmetry.permutation_invariance_check,
                       "symmetry.invariance")
        self._function(symmetry.quotient_series, "symmetry.quotient_series")
        before, after = self._hit_counter("symmetry.bpoly",
                                          lambda a: len(a[0]._bpoly_cache))
        self._function(symmetry._bpoly, "symmetry.bpoly",
                       before=before, after=after)

        self._function(padic.volkenborn_partial, "padic.partial")
        div = self.stat("cyclo.div")

        def divisions(args, state, dt):
            self.stat("padic.valuation")[2] += div[0] - state
        self._function(padic.pi_valuation, "padic.valuation",
                       before=lambda a: div[0], after=divisions)

        self._function(cli.main, "cli.main")
        self._cache_base = self._cache_counts()

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @staticmethod
    def _cache_counts() -> dict:
        from twistbern.characters import unit_group
        from twistbern.cyclo import cyclo_field
        out = {}
        for name, fn in (("cyclo.field", cyclo_field),
                         ("characters.unit_group", unit_group)):
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
        return out

    # -- check spans -----------------------------------------------------------

    def begin_check(self, check_id: int, name: str):
        self._check = {"id": check_id, "name": name, "parent": 0,
                       "start": time.perf_counter(),
                       "base": {k: tuple(self.stat(k)[:2]) for k in HOT_STATS}}

    def end_check(self, status: str):
        span = self._check
        span["end"] = time.perf_counter()
        span["status"] = status
        base = span.pop("base")
        span["layers"] = {k: [self.stat(k)[0] - c, self.stat(k)[1] - s]
                          for k, (c, s) in base.items()
                          if self.stat(k)[0] != c}
        self.spans.append(span)
        self._check = None

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric name -> value, over everything traced so far."""
        def calls(name):
            return self.stat(name)[0]

        def self_s(name):
            return self.stat(name)[1]

        def ratio(hits, lookups):
            return hits / lookups if lookups else 0.0

        m = {}
        for name in ("cyclo.mul", "cyclo.add", "cyclo.inverse", "series.mul",
                     "series.invert", "sympoly.mul", "sympoly.add",
                     "bernoulli.context", "bernoulli.table",
                     "bernoulli.power_sum", "symmetry.bpoly",
                     "symmetry.quotient_series"):
            m[f"{name}.calls"] = calls(name)
        for name in ("cyclo.mul", "cyclo.add", "cyclo.inverse", "cyclo.root",
                     "characters.enumerate", "series.mul", "series.invert",
                     "series.exp_scaled", "sympoly.mul", "sympoly.add",
                     "bernoulli.context", "bernoulli.table",
                     "bernoulli.char_sum", "symmetry.quotient_series",
                     "padic.partial", "padic.valuation", "cli.main"):
            m[f"{name}.self_s"] = self_s(name)
        m["cyclo.mul.coeff_products"] = self.stat("cyclo.mul")[2]
        now = self._cache_counts()
        for name, (h0, m0) in self._cache_base.items():
            h1, m1 = now[name]
            m[f"{name}.hit_ratio"] = ratio(h1 - h0, h1 - h0 + m1 - m0)
        for name in ("bernoulli.table", "bernoulli.power_sum",
                     "symmetry.bpoly"):
            m[f"{name}.hit_ratio"] = ratio(self.hits[name], calls(name))
        for tid in range(1, 9):
            m[f"symmetry.theorem_{tid}.s"] = self.stat(
                f"symmetry.theorem_{tid}")[1]
        m["symmetry.self_s"] = sum(self_s(n) for n in (
            "symmetry.verify", "symmetry.invariance",
            "symmetry.quotient_series", "symmetry.bpoly"))
        m["padic.valuation.divisions"] = self.stat("padic.valuation")[2]
        return m
