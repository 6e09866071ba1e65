"""loupe: computational algebra for finite loops.

Certified Cayley tables, the modular loop family L_n(m), identity deciders,
subloop censuses and lattices, Smarandache structure reports, permutation
representations, the K_2n edge-coloring correspondence, and principal
isotopes -- with a CLI tying them together.
"""

from .config import Caps, DEFAULT_CAPS
from .core import (
    CycleClass,
    FiniteLoop,
    IsoWitness,
    SubLoop,
    Verdict,
    associator,
    certify_subloop,
    commutator,
    cyclic_group,
    direct_product,
    element_order,
    find_isomorphism,
    generated_subloop,
    is_subgroup,
    left_divide,
    mul,
    quotient_loop,
    right_divide,
    subloop_as_loop,
    symmetric_group,
    two_sided_inverse,
    validate_loop,
)
from .identities import Law, SpecialKind, StrictForm, check_law, check_strict
from .ln import (
    LnParams,
    all_h_subloops,
    build_ln,
    count_ln,
    count_strictly_noncommutative,
    enumerate_ln_params,
    h_subloop,
    ln_observed_flags,
    ln_predicted_flags,
    predicted_cycle_class,
    predicted_normalizers,
)

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "DEFAULT_CAPS",
    "CycleClass",
    "FiniteLoop",
    "IsoWitness",
    "SubLoop",
    "associator",
    "certify_subloop",
    "commutator",
    "cyclic_group",
    "direct_product",
    "element_order",
    "find_isomorphism",
    "generated_subloop",
    "is_subgroup",
    "left_divide",
    "mul",
    "quotient_loop",
    "right_divide",
    "subloop_as_loop",
    "symmetric_group",
    "two_sided_inverse",
    "validate_loop",
    "Law",
    "SpecialKind",
    "StrictForm",
    "Verdict",
    "check_law",
    "check_strict",
    "LnParams",
    "all_h_subloops",
    "build_ln",
    "count_ln",
    "count_strictly_noncommutative",
    "enumerate_ln_params",
    "h_subloop",
    "ln_observed_flags",
    "ln_predicted_flags",
    "predicted_cycle_class",
    "predicted_normalizers",
    "__version__",
]
