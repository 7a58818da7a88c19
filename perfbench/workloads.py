"""Seeded inputs, the checks that run them, and the correctness gate.

A *check* is the unit every latency counts: one ``verify_theorem`` call
(``theorems``), one ``permutation_invariance_check`` or ``powersum_gf_check``
call (``series``), or one ``twistbern.cli.main([...])`` call (``wide-field``).
Each workload turns ``--seed`` into an endless stream of checks, built in
blocks of fixed composition (``block_size``) so that the mix of cheap and
costly checks, and hence the cost of a run, is the same for every seed.
The seed picks the order and the pairings inside a block.

The program is imported by ``Workload.setup``, which is part of the
measured set-up time; the wide-field inputs are generated without it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

WORKLOADS = ("theorems", "series", "wide-field")
DEFAULT_SEED = 0

CONTEXT_D = (1, 3, 4, 5)
XI_ORDERS = (1, 2, 3, 4)
ACCEPTANCE_W = ((1, 1, 1), (1, 2, 3), (2, 3, 5))
# Seeded weight triples are seeded rotations of these triples.  Cost and
# cache footprint depend on the multiset and, for the cyclic patterns of
# theorems 4 and 6, on the cyclic order, so fixing both keeps runs
# comparable across seeds (free draws moved checks/s by 25% from seed to
# seed, and a free order moved peak memory by 15%).
SEEDED_W = ((1, 4, 5), (2, 4, 5), (1, 3, 4))
THEOREM_N = range(7)  # n = 0..6
SERIES_TRUNC = (6, 7, 8)
N_CONTEXTS = {"theorems": 24, "series": 36}  # primitive / all, as built

# wide-field: prime moduli, characters of order > 2, one request per field.
# xi orders 5, 7, 9, ... are left out: there xi^d - 1 is costly to invert in
# a large field (0.4-1.6 s), and that cluster sat right at the p90 rank.
WIDE_D_MAX = 211
WIDE_XI_ORDERS = (1, 2, 3, 4, 6, 8, 12)
WIDE_PHI = (24, 120)
WIDE_COST_TARGET = 8000  # d * phi(L); one request then takes ~0.1-0.3 s
WIDE_COST_BAND = 5000
WIDE_N = (3, 4, 5)  # n cycles through these over the fields, by L
BERNOULLI_PER_ROUND = 2  # then one padic request

# padic: p in {2,3,5}, s <= 3 (p^s = 125 excluded: 2-15 s per request),
# d in {1, 3, 4} with a real character, k <= 4, n_max = s + 2
PADIC_P = (2, 3, 5)
PADIC_S = range(4)
PADIC_D = ((1, 0), (3, 1), (4, 1))
PADIC_K = range(5)
PADIC_MAX_ORDER = 100


def padic_known_defect(p: int, s: int, d: int, k: int) -> str | None:
    """Why ``convergence_check`` wrongly fails at this point, or None.

    The partial sums do converge p-adically, but the check demands strictly
    increasing valuations from level 1 on.  At xi of order 8 or 27 with p
    not dividing d the valuations drop at levels below s before they rise;
    at p=2, d=3, k=4 the level-1 valuation is unusually high.  Both make the
    check exit 1.
    """
    if p**s in (8, 27) and d % p:
        return "valuations drop below level s before rising"
    if (p, d, k) == (2, 3, 4):
        return "level-1 valuation exceeds the next level's"
    return None


# -- small arithmetic used to generate inputs ------------------------------

def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _phi(n: int) -> int:
    r = 1
    for q, e in _factorize(n).items():
        r *= (q - 1) * q ** (e - 1)
    return r


def _is_prime(n: int) -> bool:
    return n > 1 and _factorize(n) == {n: 1}


def bernoulli_pool() -> list[tuple[int, int, int, int, int]]:
    """One request (L, d, char index, xi order, n) per field Q(zeta_L).

    For prime d the characters mod d are indexed by their exponent against
    one primitive root, so index (d-1)/m has order m.  Among all
    (d, m > 2, xi order) reaching a field L with phi(L) in WIDE_PHI, the one
    with d*phi(L) nearest WIDE_COST_TARGET is kept, so requests cost about
    the same; fields whose best request is off the band are left out.
    """
    best: dict[int, tuple] = {}
    for d in range(7, WIDE_D_MAX + 1):
        if not _is_prime(d):
            continue
        for m in range(3, d):
            if (d - 1) % m:
                continue
            for r in WIDE_XI_ORDERS:
                L = math.lcm(m, r)
                ph = _phi(L)
                if not WIDE_PHI[0] <= ph <= WIDE_PHI[1]:
                    continue
                key = (abs(d * ph - WIDE_COST_TARGET), d, r, m)
                if L not in best or key < best[L][0]:
                    best[L] = (key, (L, d, (d - 1) // m, r))
    reqs = sorted(req for key, req in best.values()
                  if key[0] <= WIDE_COST_BAND)
    return [req + (WIDE_N[j % len(WIDE_N)],) for j, req in enumerate(reqs)]


def padic_pool() -> list[tuple[int, int, int, int, int]]:
    """Every padic point (p, s, d, char index, k)."""
    return [(p, s, d, ci, k)
            for p in PADIC_P for s in PADIC_S if p**s <= PADIC_MAX_ORDER
            for d, ci in PADIC_D for k in PADIC_K]


# -- check streams ----------------------------------------------------------

def block_size(workload: str) -> int:
    """Checks after which every seed's stream has the same composition.

    For theorems and series that is one context per cell per round for
    every context (see ``_balanced``); for wide-field one pass over the
    fields, with the padic requests between them.
    """
    if workload == "theorems":
        return 8 * len(THEOREM_N) * N_CONTEXTS[workload]
    if workload == "series":
        return (len(_QUOTIENT_SPECS) + 1) * N_CONTEXTS[workload]
    n = len(bernoulli_pool())
    return n + n // BERNOULLI_PER_ROUND


class Check:
    """One call into the program; ``key`` names its inputs uniquely."""

    __slots__ = ("kind", "key", "args")

    def __init__(self, kind: str, key: str, args: tuple):
        self.kind = kind
        self.key = key
        self.args = args


def _balanced(rng: random.Random, cells: list, n_contexts: int):
    """Endless rounds of every cell once, in seeded order, each with a context.

    Each block of ``n_contexts`` rounds pairs every cell with every context
    exactly once (seeded offsets), so cheap and costly pairings occur in the
    same mix for every seed.  Yields (round, cell, context index).
    """
    cells = list(cells)
    offset = {cell: rng.randrange(n_contexts) for cell in cells}
    r = 0
    while True:
        rng.shuffle(cells)
        for cell in cells:
            yield r, cell, (r + offset[cell]) % n_contexts
        r += 1


def _theorem_stream(rng: random.Random, labels: list[str]):
    pool = list(ACCEPTANCE_W)
    for w in SEEDED_W:
        k = rng.randrange(3)
        pool.append(w[k:] + w[:k])
    cells = [(tid, n) for tid in range(1, 9) for n in THEOREM_N]
    w_offset = {cell: rng.randrange(len(pool)) for cell in cells}
    for r, (tid, n), ci in _balanced(rng, cells, len(labels)):
        # the block number shifts the pairing, so blocks do not repeat
        w = pool[(r + r // len(labels) + w_offset[tid, n]) % len(pool)]
        yield Check("theorem", f"theorem {tid} {labels[ci]} w{w} n{n}",
                    (tid, ci, w, n))


_QUOTIENT_SPECS = tuple([("pairwise", i) for i in range(4)]
                        + [("single", i) for i in range(4)]
                        + [("cyclic", i) for i in range(2)])


def _series_stream(rng: random.Random, labels: list[str]):
    cells = list(_QUOTIENT_SPECS) + [("powersum", 0)]
    for _, (family, i), ci in _balanced(rng, cells, len(labels)):
        trunc = rng.choice(SERIES_TRUNC)
        if family == "powersum":
            w = rng.randint(1, 5)
            yield Check("powersum", f"powersum {labels[ci]} w{w} k{trunc}",
                        (ci, w, trunc))
        else:
            w = tuple(rng.randint(1, 5) for _ in range(3))
            yield Check("invariance",
                        f"invariance {family}/{i} {labels[ci]} w{w} T{trunc}",
                        (family, i, ci, w, trunc))


def _padic_order(rng: random.Random, pool: list) -> list:
    # Spread the known-defect points evenly, so every prefix of the stream
    # holds them at their share of the whole pool.
    bad = [pt for pt in pool if padic_known_defect(pt[0], pt[1], pt[2], pt[4])]
    good = [pt for pt in pool if pt not in bad]
    rng.shuffle(bad)
    rng.shuffle(good)
    n, nbad = len(pool), len(bad)
    return [bad.pop() if (j + 1) * nbad // n > j * nbad // n else good.pop()
            for j in range(n)]


def bernoulli_check(L: int, d: int, ci: int, r: int, n: int) -> Check:
    argv = ["bernoulli", "--d", str(d), "--char", str(ci), "--xi-order",
            str(r), "--n", str(n), "--format", "json"]
    return Check("cli", " ".join(argv), (tuple(argv), None))


def padic_check(p: int, s: int, d: int, ci: int, k: int) -> Check:
    argv = ["padic", "--p", str(p), "--s", str(s), "--d", str(d), "--char",
            str(ci), "--k", str(k), "--n-max", str(s + 2), "--format", "json"]
    return Check("cli", " ".join(argv),
                 (tuple(argv), padic_known_defect(p, s, d, k)))


def _wide_stream(rng: random.Random):
    bern = bernoulli_pool()
    padic: list = []
    while True:
        # one pass uses every field once; only a later pass repeats a field
        order = bern[:]
        rng.shuffle(order)
        for j, req in enumerate(order):
            yield bernoulli_check(*req)
            if j % BERNOULLI_PER_ROUND == BERNOULLI_PER_ROUND - 1:
                if not padic:
                    padic = _padic_order(rng, padic_pool())
                yield padic_check(*padic.pop(0))


# -- the program side: set-up, running a check, digesting its output ----------

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Outcome:
    """The gate's view of one check: status, output digest and detail."""

    __slots__ = ("status", "digest", "detail")

    def __init__(self, status: str, digest: str | None = None,
                 detail: str | None = None):
        self.status = status   # pass | mismatch | error | known-defect
        self.digest = digest
        self.detail = detail


class Workload:
    """Set-up and check execution for one workload.

    ``setup`` imports the program and builds the contexts the checks share;
    ``call`` is the timed part; ``judge`` is the gate, outside the timing.
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.contexts: list = []
        self.stream = None

    def setup(self):
        from twistbern import bernoulli, cli, symmetry
        from twistbern.characters import enumerate_characters
        self._cli = cli
        self._symmetry = symmetry
        self._bernoulli = bernoulli
        rng = random.Random(f"{self.name}:{self.seed}")
        if self.name == "wide-field":
            self.stream = _wide_stream(rng)
            return
        labels = []
        for d in CONTEXT_D:
            for idx, chi in enumerate(enumerate_characters(d)):
                if self.name == "theorems" and not chi.is_primitive:
                    continue
                for r in XI_ORDERS:
                    self.contexts.append(
                        bernoulli.TwistContext.from_orders(d, idx, r))
                    labels.append(f"d{d}c{idx}r{r}")
        if len(labels) != N_CONTEXTS[self.name]:
            raise RuntimeError(f"expected {N_CONTEXTS[self.name]} contexts")
        if self.name == "theorems":
            self.stream = _theorem_stream(rng, labels)
        else:
            self.stream = _series_stream(rng, labels)

    def next_check(self) -> Check:
        return next(self.stream)

    def call(self, check: Check):
        """Run the check's one call into the program and return its result."""
        a = check.args
        if check.kind == "theorem":
            tid, ci, w, n = a
            return self._symmetry.verify_theorem(tid, self.contexts[ci], w, n)
        if check.kind == "invariance":
            family, i, ci, w, trunc = a
            spec = self._symmetry.QuotientSpec(family, i, w, self.contexts[ci])
            return self._symmetry.permutation_invariance_check(spec, trunc)
        if check.kind == "powersum":
            ci, w, trunc = a
            return self._bernoulli.powersum_gf_check(self.contexts[ci], w,
                                                      trunc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.main(list(a[0]))
        return code, out.getvalue()

    @staticmethod
    def output_text(check: Check, result) -> str:
        """The exact output a reference digest covers."""
        if check.kind == "theorem":
            return "\n".join([*(str(e) for e in result.expressions),
                              result.verdict, str(result.detail),
                              json.dumps(result.notes, sort_keys=True)])
        if check.kind in ("invariance", "powersum"):
            return f"{'pass' if result.passed else 'fail'}\n{result.detail}"
        code, stdout = result
        return f"{code}\n{stdout}"

    def judge(self, check: Check, result, reference: dict) -> Outcome:
        """Gate one check: verdict or exit code, then the reference digest.

        A reference value of None marks a known-defect point whose
        mathematically expected result is exit 0 with an output no one has
        computed; only the exit code is compared there.
        """
        if check.kind == "cli":
            code, stdout = result
            known = check.args[1]
            if code != 0:
                if known and code == 1:
                    return Outcome("known-defect", detail=known)
                return Outcome("mismatch", detail=f"exit code {code}")
            try:
                json.loads(stdout)
            except ValueError:
                return Outcome("mismatch", detail="stdout is not JSON")
        elif not result.passed:
            return Outcome("mismatch", detail=f"verdict fail: {result.detail}")
        digest = _digest(self.output_text(check, result))
        if check.key in reference:
            want = reference[check.key]
            if want is not None and want != digest:
                return Outcome("mismatch", digest,
                               f"digest {digest} != reference {want}")
        return Outcome("pass", digest)

    def negative_control(self) -> list[str]:
        """Theorem 3's printed shift variant must fail where it is known to.

        The variant agrees for weights (1,1,1).  For pairwise-distinct weights
        it agrees at n <= 2 for most contexts and for some weight orders at
        any n, so the control uses points where it is established to differ.
        Returns the list of control failures (empty when all hold).
        """
        from twistbern.bernoulli import TwistContext
        ctxs = {(1, 0): TwistContext.from_orders(1, 0, 1),
                (3, 1): TwistContext.from_orders(3, 1, 1)}
        expect = [((1, 0), (1, 1, 1), 4, True), ((1, 0), (2, 3, 5), 4, False),
                  ((3, 1), (1, 2, 3), 4, False)]
        bad = []
        for key, w, n, want in expect:
            rep = self._symmetry.verify_theorem(3, ctxs[key], w, n)
            got = rep.notes.get("printed_shift_variant_matches")
            if got is not want or not rep.passed:
                bad.append(f"theorem 3 d={key[0]} w={w} n={n}: variant "
                           f"matches = {got}, expected {want}")
        return bad
