"""Test-only readings of symmetry's table rows, kept out of the package
because nothing in it needs them."""

from twistbern import symmetry


def evaluate(row: str, ctx, w: tuple, n: int):
    """The n-th EGF coefficient of a table row at the weights w: the lift of
    its row form.  symmetry._lift and symmetry._row_form are looked up on the
    module at each call, so a test that patches them is seen here."""
    return symmetry._lift(*symmetry._row_form(row, ctx, w, n), n, 1)
