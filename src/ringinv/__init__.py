"""Exact computational engine for finite rings with finite automorphism
groups: invariant subrings, traces, torsion ideals, bad primes, radicals,
splitting structures, and per-statement checking with counterexample search.
"""

from .caps import Caps, DEFAULT_CAPS
from .groups import (
    AutomorphismGroup,
    RingAutomorphism,
    close_group,
    fixed_ring,
    h_constant,
    p_group_fixed_point,
    p_normal_complement,
    quotient_action,
    trivial_group,
)
from .invariants import (
    GActionContext,
    SplittingData,
    averaging_idempotent,
    centralizer_normalizer,
    inner_automorphism,
    is_proper_splitting,
    torsion_ideal,
)
from .radicals import (
    FiniteModule,
    RadicalProfile,
    UdimCertificate,
    jacobson_radical,
    module_length,
    nilpotency_index,
    prime_radical,
    radical_profile,
    regular_elements_quotient,
    uniform_dimension,
)
from .ring_core import (
    AdditiveGroup,
    AdditiveMap,
    FiniteRing,
    Ideal,
    Subgroup,
    SubringView,
    cyclic_ring,
    direct_product,
    generated_ideal,
    group_ring,
    inverse,
    matrix_ring,
    quotient_by_ideal,
    unitalize,
    validate_ring,
    zero_mult_ring,
)
from .theorems import THEOREM_IDS, TheoremReport, check, counterexample_search

__all__ = [name for name in dir() if not name.startswith("_")]
