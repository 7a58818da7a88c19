"""Dirichlet characters mod d with exact cyclotomic values.

Characters are presented as exponent vectors against a fixed generator
presentation of (Z/dZ)*, so enumeration order is deterministic and two
characters are equal iff their exponent vectors agree.  Values live in
Q(zeta_m) where m is the character's value order; non-coprime arguments map
to 0, except that the character mod 1 is identically 1 (including at 0).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from .cyclo import CycloNumber, cyclo_field, divisors, euler_phi, factorize


def _primitive_root(p: int, e: int) -> int:
    # Primitive root mod p^e for odd prime p: find one mod p, lift if needed.
    phi_p = p - 1
    qs = list(factorize(phi_p))
    g = None
    for cand in range(2, p):
        if all(pow(cand, phi_p // q, p) != 1 for q in qs):
            g = cand
            break
    if g is None:
        raise ArithmeticError(f"no primitive root found mod {p}")
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


class UnitGroup:
    """(Z/dZ)* presented as a product of cyclic groups with fixed generators."""

    __slots__ = ("modulus", "generators", "_dlog", "phi")

    def __init__(self, modulus: int, generators: tuple[tuple[int, int], ...]):
        self.modulus = modulus
        self.generators = generators
        self.phi = euler_phi(modulus)
        # Full discrete-log table, unit residue -> exponent tuple, built by
        # stepping along each generator in turn (r -> r * g), with no pow.
        table = {1 % modulus: ()}
        for g, o in generators:
            grown = {}
            for r, exps in table.items():
                for x in range(o):
                    grown[r] = (*exps, x)
                    r = r * g % modulus
            table = grown
        if len(table) != self.phi:
            raise ArithmeticError(f"generator presentation of (Z/{modulus})* is not faithful")
        self._dlog = table

    def dlog(self, a: int) -> tuple[int, ...] | None:
        """Exponent tuple of a against the generators, or None if gcd(a,d)>1."""
        return self._dlog.get(a % self.modulus)

    def __repr__(self):
        return f"UnitGroup({self.modulus}, {list(self.generators)})"


@lru_cache(maxsize=None)
def unit_group(d: int) -> UnitGroup:
    """Generator presentation of (Z/dZ)*: odd prime powers get a primitive
    root, 2^k for k >= 3 gets the pair (-1, 3), composites combine via CRT."""
    if d < 1:
        raise ValueError("modulus must be >= 1")
    gens: list[tuple[int, int]] = []
    for p, e in sorted(factorize(d).items()):
        pe = p**e
        rest = d // pe
        if p == 2:
            if e == 1:
                comps: list[tuple[int, int]] = []
            elif e == 2:
                comps = [(3, 2)]
            else:
                comps = [(pe - 1, 2), (3, 2 ** (e - 2))]
        else:
            comps = [(_primitive_root(p, e), euler_phi(pe))]
        for g, o in comps:
            if rest > 1:
                # Lift to mod d: congruent to g mod p^e and 1 mod the rest.
                inv = pow(pe, -1, rest)
                lifted = (g * rest * pow(rest, -1, pe) + pe * inv) % d
            else:
                lifted = g % d
            gens.append((lifted, o))
    return UnitGroup(d, tuple(gens))


class DirichletCharacter:
    """A character mod d given by its exponents against the unit-group generators."""

    __slots__ = ("group", "exponents", "order", "conductor", "_value_steps",
                 "_value_exponents")

    def __init__(self, group: UnitGroup, exponents: tuple[int, ...]):
        if len(exponents) != len(group.generators):
            raise ValueError("one exponent per generator required")
        self.group = group
        self.exponents = tuple(e % o for e, (_, o) in zip(exponents, group.generators))
        # Value order: lcm of the orders of the generator images.
        m = 1
        for e, (_, o) in zip(self.exponents, group.generators):
            m = math.lcm(m, o // math.gcd(o, e))
        self.order = m
        # chi(g_i) = zeta_o^e = zeta_m^(e*m/o), and o / gcd(o, e) divides m
        self._value_steps = tuple(
            e * m // o for e, (_, o) in zip(self.exponents, group.generators))
        self._value_exponents = None
        self.conductor = self._conductor()

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def value_exponents(self) -> tuple:
        """(value_exponent(a) for a < d), built on first use by the walk of
        the group's dlog table: each step along g_i adds the exponent of
        chi(g_i), with no dlog per residue."""
        values = self._value_exponents
        if values is None:
            d = self.group.modulus
            walk = [(1 % d, 0)]
            for step, (g, o) in zip(self._value_steps, self.group.generators):
                grown = []
                for r, k in walk:
                    for _ in range(o):
                        grown.append((r, k))
                        r = r * g % d
                        k += step
                walk = grown
            values = [None] * d
            for r, k in walk:
                values[r] = k % self.order
            values = self._value_exponents = tuple(values)
        return values

    def value_exponent(self, a: int) -> int | None:
        """k with chi(a) = zeta_m^k, or None when chi(a) = 0."""
        return self.value_exponents()[a % self.group.modulus]

    def __call__(self, a: int) -> CycloNumber:
        """chi(a) as an exact element of Q(zeta_m)."""
        k = self.value_exponent(a)
        field = cyclo_field(self.order)
        return field.zero if k is None else field.root(k)

    def _conductor(self) -> int:
        """Smallest f | d through which chi factors; chi is primitive iff f = d.

        f passes when chi(a) = 1 at every unit a = 1 mod f.  Each a is
        read through one dlog and stops the test where it fails, so no
        table of chi is built: enumerate_characters builds phi(d)
        characters, and a table each would cost d * phi(d) steps."""
        d, dlog = self.group.modulus, self.group.dlog
        for f in divisors(d):
            if all(sum(s * x for s, x in zip(self._value_steps, exps))
                   % self.order == 0
                   for exps in map(dlog, range(1, d + 1, f))
                   if exps is not None):
                return f
        return d  # unreachable: f = d always passes

    def __eq__(self, other):
        return (isinstance(other, DirichletCharacter)
                and other.group.modulus == self.group.modulus
                and other.exponents == self.exponents)

    def __hash__(self):
        return hash((self.group.modulus, self.exponents))

    def to_json_dict(self) -> dict:
        return {"d": self.modulus, "exponents": list(self.exponents),
                "conductor": self.conductor, "order": self.order}

    def __repr__(self):
        return (f"DirichletCharacter(d={self.modulus}, "
                f"exponents={list(self.exponents)}, order={self.order}, "
                f"conductor={self.conductor})")


def enumerate_characters(d: int) -> list[DirichletCharacter]:
    """All phi(d) characters mod d, in deterministic mixed-radix order.

    Index 0 is the principal character; the last generator's exponent varies
    fastest.  This order defines the character index used by the CLI.
    """
    g = unit_group(d)
    orders = [o for _, o in g.generators]
    return [DirichletCharacter(g, exps)
            for exps in product(*(range(o) for o in orders))]


def character(d: int, index: int) -> DirichletCharacter:
    """The index-th character mod d in the order of enumerate_characters,
    built alone: the index is decoded in mixed radix, the last generator's
    exponent the fastest digit."""
    g = unit_group(d)
    if not 0 <= index < g.phi:
        raise ValueError(f"character index out of range (0..{g.phi - 1})")
    exps = []
    for _, o in reversed(g.generators):
        index, e = divmod(index, o)
        exps.append(e)
    return DirichletCharacter(g, tuple(reversed(exps)))
