"""Exact-arithmetic engine for cluster seeds over symmetric Kac-Moody
Weyl group words: root and weight combinatorics, Laurent seed mutation,
Hom-dimension tables, chain-reversal mutation passes, shuffle-algebra
generating functions, and type-A minor cross-validation.
"""

from .cartan import (
    CartanMatrix,
    QuiverOrientation,
    ReducedWord,
    Weight,
    b_vector,
    dim_V,
    euler_form,
    fundamental_weight,
    is_bracket_closed,
    is_reduced,
    reflect_root,
    reflect_weight,
    sym_form,
)
from .homdata import hom_tables, mutate_delta_dimvec, mutate_dimvec, ringel_form_delta
from .intervals import (
    IntervalLabel,
    MutationPlan,
    PBWExpander,
    mu_i_plan,
    run_mu_i,
    shift_sequence,
    star,
    verify_identity,
)
from .laurent import LaurentPoly, VarTable
from .minors import cross_validate, minor, minor_spec_for_Vk, x_product
from .quiver import (
    ExchangeMatrix,
    Quiver,
    Seed,
    acyclic_double,
    b_matrix,
    denominator_vector,
    g_vector_initial,
    gamma_i,
    y_dagger,
)
from .words import WordSum, euler_of_reachable, g_V, phi_eval, rho_e, rho_f, shuffle

__all__ = [name for name in dir() if not name.startswith("_")]
