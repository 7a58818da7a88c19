"""Test-only readings of symmetry's table rows, kept out of the package
because nothing in it needs them."""

from fractions import Fraction

from twistbern import bernoulli, cyclo, symmetry


def evaluate(row: str, ctx, w: tuple, n: int):
    """The n-th EGF coefficient of a table row at the weights w: the lift of
    its row form.  symmetry._lift and symmetry._row_form are looked up on the
    module at each call, so a test that patches them is seen here."""
    return symmetry._lift(*symmetry._row_form(row, ctx, w, n), n, 1)


def seed_form(row: str, ctx, w: tuple, n: int) -> tuple:
    """The row form (scales, const * E[:n+1]) of a table row by the seed
    route, read from its _ROWS pieces, not from row_operands: E is one
    ``cyclo.product`` of a Bernoulli seed ``_bpoly(ctx, c, n)``,
    [c^j B_j / j!], per B piece and of the character-sum tables of its
    shift entries and S pieces, each to t^n, and a B piece adds c*u to its
    slot's scale."""
    const, pieces = symmetry._ROWS[row](*w, ctx.d)
    tables, scales = [], {}
    for desc in pieces:
        if desc[0] == "B":
            _, c, u, slot, sums = desc
            tables.append(bernoulli._bpoly(ctx, c, n))
            tables += [bernoulli.factor_table(
                ctx, ("sum", m, A - 1, Fraction(s * c, q)), n)
                for A, m, s, q in sums]
            scales[slot] = scales.get(slot, 0) + c * u
        else:
            tables.append(bernoulli.factor_table(ctx, ("sum", *desc[1:]), n))
    return scales, tuple(cyclo.product(ctx.field, tables, n + 1, const))
