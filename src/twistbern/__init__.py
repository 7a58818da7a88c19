"""Exact cyclotomic arithmetic for generalized twisted Bernoulli polynomials,
twisted power sums, and mechanical verification of their three-variable
symmetry identities."""

from .bernoulli import (BernoulliTable, TwistContext, bernoulli_numbers,
                        bernoulli_polynomial, power_sum, powersum_gf_check)
from .characters import (DirichletCharacter, UnitGroup, character,
                         enumerate_characters, unit_group)
from .cyclo import (CycloField, CycloNumber, Rational, cyclo_field,
                    cyclotomic_polynomial)
from .padic import (PadicContext, convergence_check, padic_context,
                    pi_valuation, shift_identity_check, volkenborn_partial)
from .report import CheckReport, TheoremReport
from .series import PowerSeries
from .symmetry import (EXPANSION_FORMS, THEOREM_IDS, QuotientSpec,
                       expansion_coefficient, permutation_invariance_check,
                       permutation_reduction_check, quotient_series,
                       substitution_check, verify_theorem)
from .sympoly import SymPoly

__all__ = [
    "BernoulliTable", "CheckReport", "CycloField", "CycloNumber",
    "DirichletCharacter", "EXPANSION_FORMS", "PadicContext", "PowerSeries",
    "QuotientSpec", "Rational", "SymPoly", "THEOREM_IDS", "TheoremReport",
    "TwistContext", "UnitGroup", "bernoulli_numbers", "bernoulli_polynomial",
    "character", "convergence_check", "cyclo_field",
    "cyclotomic_polynomial", "enumerate_characters", "expansion_coefficient",
    "padic_context", "permutation_invariance_check",
    "permutation_reduction_check", "pi_valuation", "power_sum",
    "powersum_gf_check", "quotient_series", "shift_identity_check",
    "substitution_check", "unit_group", "verify_theorem",
    "volkenborn_partial",
]

__version__ = "0.1.0"
