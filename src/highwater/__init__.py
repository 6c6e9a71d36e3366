"""Exact computational engine for the cover of the Highwater algebra."""

from .fields import Field, GF, QQ, Scalar, FieldMismatchError, \
    BadCharacteristicError
from .elements import (Element, Automorphism, axis, sigma, pi, zed,
                       from_terms, zero, theta, tau, miyamoto, compose,
                       apply, identity_aut, c_elem, u_elem, v_elem, w_elem,
                       z_elem, w_tilde, c_pair, t_pair, u_pair, v_pair,
                       z_pair, first_def_s, frobenius)
from .textio import parse_element, format_element, ParseError
from .eigen import (EigenDecomposition, FusionLaw, eigendecompose,
                    fusion_check, fusion_law, miyamoto_consistency,
                    miyamoto_map, product_identity_suite,
                    twisted_identity_suite)
from .ideals import (IdealArgumentError, IdealData, JIdeal, PatternIdeal,
                     aut_invariance_check, fold, ideal_of, j_canonicalize,
                     j_ideal_of, laurent_gcd, membership,
                     minimal_ideal_basis, pure_a_extract)
from .quotients import (AxisOrbit, FiniteAlgebra, QuotientError, axis_orbit,
                        eigenspace_split, family_Hn, family_Ln,
                        small_quotient_suite)

__all__ = [
    "Field", "GF", "QQ", "Scalar", "FieldMismatchError",
    "BadCharacteristicError", "Element", "Automorphism", "axis", "sigma",
    "pi", "zed", "from_terms", "zero", "theta", "tau", "miyamoto",
    "compose", "apply", "identity_aut", "c_elem", "u_elem", "v_elem",
    "w_elem", "z_elem", "w_tilde", "c_pair", "t_pair", "u_pair", "v_pair",
    "z_pair", "first_def_s", "frobenius", "parse_element",
    "format_element", "ParseError",
    "EigenDecomposition", "FusionLaw", "eigendecompose", "fusion_check",
    "fusion_law", "miyamoto_consistency", "miyamoto_map",
    "product_identity_suite", "twisted_identity_suite",
    "IdealArgumentError", "IdealData", "JIdeal", "PatternIdeal",
    "aut_invariance_check", "fold", "ideal_of", "j_canonicalize",
    "j_ideal_of", "laurent_gcd", "membership", "minimal_ideal_basis",
    "pure_a_extract",
    "AxisOrbit", "FiniteAlgebra", "QuotientError", "axis_orbit",
    "eigenspace_split", "family_Hn", "family_Ln", "small_quotient_suite",
]
