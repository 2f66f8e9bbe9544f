"""Exact-arithmetic toolkit for q-Catalan congruences, cyclotomic-field
identities and Dirichlet character sums, with a verification CLI."""

from .ring import Poly
from .cyclotomic import (
    CycloElem,
    CycloField,
    cyclotomic_poly,
    euler_phi,
    reduce_mod_phi_power,
)
from .qcomb import (
    catalan_sum,
    central_sum,
    gaussian_binomial,
    legendre3,
    q_catalan,
    q_catalan_maj_oracle,
    q_pochhammer,
)
from .congruence import (
    VerificationReport,
    check_congruence,
    verify_central_qbinom_congruence,
    verify_liu_mod_phi2,
    verify_liu_petrov,
    verify_lucas_qbinom,
    verify_main_theorem,
    verify_row_qbinom_congruence,
    verify_tauraso13_identity,
    verify_tauraso_mod_phi,
)
from .rootid import (
    compute_auxiliaries,
    verify_aux_properties,
    verify_even_case,
    verify_explicit,
    verify_extan,
    verify_main3n,
    verify_main3n_new,
    verify_mid_identity,
    verify_odd_case,
    verify_pfd,
    verify_sawtooth,
    verify_trig_identity,
)
from .charsum import (
    DirichletChar,
    char_value,
    character_group,
    compute_char_sums,
    verify_taoconj,
)
from .qdsl import EvalContext, eval_cyclo, eval_poly, parse

__all__ = [
    "Poly",
    "CycloElem",
    "CycloField",
    "cyclotomic_poly",
    "euler_phi",
    "reduce_mod_phi_power",
    "q_pochhammer",
    "gaussian_binomial",
    "q_catalan",
    "q_catalan_maj_oracle",
    "catalan_sum",
    "central_sum",
    "legendre3",
    "VerificationReport",
    "check_congruence",
    "verify_tauraso_mod_phi",
    "verify_liu_mod_phi2",
    "verify_main_theorem",
    "verify_liu_petrov",
    "verify_tauraso13_identity",
    "verify_lucas_qbinom",
    "verify_central_qbinom_congruence",
    "verify_row_qbinom_congruence",
    "compute_auxiliaries",
    "verify_main3n",
    "verify_main3n_new",
    "verify_mid_identity",
    "verify_extan",
    "verify_explicit",
    "verify_even_case",
    "verify_odd_case",
    "verify_aux_properties",
    "verify_pfd",
    "verify_trig_identity",
    "verify_sawtooth",
    "DirichletChar",
    "character_group",
    "char_value",
    "compute_char_sums",
    "verify_taoconj",
    "EvalContext",
    "parse",
    "eval_poly",
    "eval_cyclo",
]

__version__ = "0.1.0"
