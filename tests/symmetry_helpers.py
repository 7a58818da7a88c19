"""Test-only readings of symmetry's table rows, kept out of the package
because nothing in it needs them."""

from fractions import Fraction

from twistbern import bernoulli, cyclo, symmetry, sympoly


def evaluate(row: str, ctx, w: tuple, n: int):
    """The n-th EGF coefficient of a table row at the weights w: the lift of
    its row form.  sympoly.lift and symmetry._row_form, which evaluates by
    symmetry._form, are looked up on their modules at each call, so a test
    that patches them is seen here."""
    return sympoly.lift(*symmetry._row_form(row, ctx, w, n), n, 1)


def sum_key(m: int, bound: int, sigma) -> tuple:
    """The factor_table key of sum_{a<=bound} chi(a) xi^(am) e^(a sigma t)
    in its one spelling: sigma an int where it is integral."""
    sigma = Fraction(sigma)
    return ("sum", m, bound,
            sigma.numerator if sigma.denominator == 1 else sigma)


def distinct_orders(w: tuple, perms: tuple) -> tuple:
    """The orders (w[a], w[b], w[c]) over perms (a, b, c), each once: a
    repeated weight repeats an order, and an order equals itself."""
    return tuple(dict.fromkeys((w[a], w[b], w[c]) for a, b, c in perms))


def seed_form(row: str, ctx, w: tuple, n: int) -> tuple:
    """The row form (scales, const * E[:n+1]) of a table row by the seed
    route, read from its _ROWS pieces, not from row_operands: E is one
    ``cyclo.product`` of a Bernoulli seed ``_bpoly(ctx, c, n)``,
    [c^j B_j / j!], per B piece and of the character-sum tables of its
    shift entries and S pieces, each to t^n, and a B piece adds c*u to its
    slot's scale; the scales as sorted (slot, scale) pairs, as a plan's
    exp."""
    const, pieces = symmetry._ROWS[row](*w, ctx.d)
    tables, scales = [], {}
    for desc in pieces:
        if desc[0] == "B":
            _, c, u, slot, sums = desc
            tables.append(bernoulli._bpoly(ctx, c, n))
            tables += [bernoulli.factor_table(
                ctx, sum_key(m, A - 1, Fraction(s * c, q)), n)
                for A, m, s, q in sums]
            scales[slot] = scales.get(slot, 0) + c * u
        else:
            _, c, bound = desc
            tables.append(bernoulli.factor_table(ctx, sum_key(c, bound, c),
                                                 n))
    return tuple(sorted(scales.items())), tuple(
        cyclo.product(ctx.field, tables, n + 1, const))


def _weighted(power: int, i: int, big: int) -> tuple:
    # the pairwise (power 2) and single (power 1) families: i units scaled
    # by big, the prefactor big^(power - i) from integer powers
    return (big ** (power - i) if i <= power
            else Fraction(1, big ** (i - power))), 3 - i


#: family -> (w1, w2, w3, i) -> (prefactor, t power) of each quotient as the
#: paper displays it, transcribed by hand: the reference that
#: bernoulli.quotient_plan's derivation from the operands must meet.
PAPER_PREFACTORS = {
    "pairwise": lambda w1, w2, w3, i: _weighted(2, i, w1 * w2 * w3),
    "single": lambda w1, w2, w3, i: _weighted(1, i, w1 * w2 * w3),
    "cyclic": lambda w1, w2, w3, i: (
        (w1 * w2 * w3, 3) if i == 0 else (Fraction(1, w1 * w2 * w3), 0)),
}


def owed_shift(ctx, t_power: int, scales) -> int:
    """t_power less one per scale c with xi^(dc) = 1, read from xi's
    order: the power of t a quotient with those scales owes."""
    return t_power - sum(ctx.d * c % ctx.xi_order == 0 for c in scales)


def keys_by_hand(ctx, keys, t_power: int, scales, truncation: int,
                 const=1) -> tuple:
    """const t^shift times one ``cyclo.product`` of the factor tables of
    keys, taken in the order given, to t^truncation, with no plan and no
    evaluator of the package: shift is ``owed_shift``'s, and t^shift is
    applied here, a negative power only where it divides."""
    shift = owed_shift(ctx, t_power, scales)
    length = max(truncation - shift, 0)
    q = cyclo.product(ctx.field, [bernoulli.factor_table(ctx, key, length)
                                  for key in keys], length + 1, const)
    if shift < 0:
        assert not any(q[:-shift]), f"t^{-shift} does not divide"
        return tuple(q[-shift:])
    return ((ctx.field.zero,) * shift + tuple(q))[:truncation + 1]


def plan_groups(plan, w: tuple, perms: tuple) -> tuple:
    """Per distinct weight order of w under perms, the index among those
    orders of the first order of its plan in the CheckPlan plan."""
    orders = distinct_orders(w, perms)
    groups = {}
    for (a, b, c), k in zip(perms, plan.at):
        groups.setdefault((w[a], w[b], w[c]), orders.index(plan.orders[k]))
    assert tuple(groups) == orders
    return tuple(groups.values())
