"""Test-only constructions on cyclotomic fields, kept out of the package
because nothing in it needs them: the embedding Q(zeta_L) -> Q(zeta_L')
and the inverse of ``CycloNumber.to_json_dict``."""

from fractions import Fraction

from twistbern.cyclo import CycloField, CycloNumber, cyclo_field


def embed_into(x: CycloNumber, field: CycloField) -> CycloNumber:
    """Embed x in a larger cyclotomic field via zeta_L -> zeta_L'^(L'/L).

    The target order must be a multiple of the source order; the map is a
    ring homomorphism.
    """
    if x.field.order == field.order:
        return x if x.field is field else field.element(x.coeffs)
    if field.order % x.field.order:
        raise ValueError("target field order must be a multiple of the source")
    step = field.order // x.field.order
    return sum((c * field.root(step * i) for i, c in enumerate(x.coeffs)
                if c), field.zero)


def from_json_dict(d: dict) -> CycloNumber:
    """The element that ``CycloNumber.to_json_dict`` rendered as d."""
    return cyclo_field(d["L"]).element([Fraction(s) for s in d["coeffs"]])
