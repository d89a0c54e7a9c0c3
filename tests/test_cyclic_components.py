"""A cyclic primary component is read off, not closed.

When R_p = ⊕_i m_i·Z/d_i has one nontrivial coordinate it is cyclic of
order p^a, its sided ideals are the chain p^j·R_p of colength j, and each
radical meets it in R_p or p·R_p, as that radical's test of R_p decides
(proofs in the `radicals` docstring).  Here the lattices of both sides, the
colength memo and both radicals are compared with the whole-ring
constructions of `tests/oracles.py` and with `_colength`'s cover climb on a
fresh copy of the ring, on the named catalog and the ladder, on
`random_instances(100, s)` for two seeds (each with its fixed rings), on
Z/p^k for p ≤ 5 and k ≤ 3 under every multiplier e·e = c·e, and on
Z/8 × Z/9 and Z/4 × Z/7.
"""

import pytest

from ringinv import radicals
from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances
from ringinv.invariants import GActionContext
from ringinv.radicals import (
    enumerate_ideals,
    exact_lattice,
    jacobson_radical,
    prime_radical,
    quotient_length,
)
from ringinv.ring_core import LEFT, RIGHT, cyclic_ring, direct_product

from oracles import whole_ring_jacobson_radical, whole_ring_lattice, whole_ring_prime_radical
from test_cold_context import fresh
from test_component_lattices import _forbid_climbs
from test_ladder import ladder_instances

CAPS = Caps()
SEEDS = (20260808, 20260909)


def with_fixed_rings(instances):
    out = []
    for inst in instances:
        out.append(inst.ring)
        out.append(GActionContext(inst.ring, inst.group).fixed_image().ring)
    return out


def prime_power_rings():
    """Z/p^k with e·e = c·e, for p = 2, 3, 5, k = 1, 2, 3 and every c."""
    return [cyclic_ring(p ** k, c) for p in (2, 3, 5) for k in (1, 2, 3)
            for c in range(p ** k)]


FAMILIES = {
    "catalog_and_ladder": lambda: with_fixed_rings(named_instances() + ladder_instances()),
    **{f"random_{seed}": lambda seed=seed: with_fixed_rings(random_instances(100, seed)[0])
       for seed in SEEDS},
    "prime_powers": prime_power_rings,
    "products": lambda: [direct_product([cyclic_ring(8), cyclic_ring(9)], name="z8xz9"),
                         direct_product([cyclic_ring(4), cyclic_ring(7)], name="z4xz7")],
}


def _climbed_colength(ring, side, sub) -> int:
    """len(R/sub) by `_colength`'s cover climb on a fresh copy of `ring`,
    where no lattice has filled the memo."""
    copy = fresh(ring)
    return radicals._colength(copy, side, copy.additive.subgroup(sub.key))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lattices_colengths_and_radicals_match_the_oracles(family, monkeypatch):
    cyclic = 0
    for ring in FAMILIES[family]():
        ring = fresh(ring)
        cyclic += any(radicals._is_cyclic(c) for _, c in ring.primary_components())
        assert prime_radical(ring).sub == whole_ring_prime_radical(ring), ring.name
        assert jacobson_radical(ring).sub == whole_ring_jacobson_radical(ring), ring.name
        if not exact_lattice(ring, CAPS):
            continue
        for side in (LEFT, RIGHT):
            ideals, exhaustive = enumerate_ideals(ring, side, CAPS)
            want, want_exhaustive = whole_ring_lattice(ring, side, CAPS)
            assert exhaustive == want_exhaustive, (ring.name, side)
            assert [(i.side, i.key) for i in ideals] == [(side, i.key) for i in want], (
                ring.name, side)
            if not exhaustive:
                continue
            with monkeypatch.context() as patched:
                _forbid_climbs(patched)
                lengths = [quotient_length(ring, side, i.sub, CAPS) for i in ideals]
            assert lengths == [_climbed_colength(ring, side, i.sub) for i in ideals], (
                ring.name, side)
    assert cyclic > 0


def test_a_cyclic_chain_has_one_member_per_colength():
    """Z/27: R ⊋ 3R ⊋ 9R ⊋ 0, of colengths 0 to 3; J = N = 3R.  Z/27 with
    e·e = 3e is nilpotent, so J = N = R."""
    z27 = fresh(cyclic_ring(27))
    ideals, exhaustive = enumerate_ideals(z27, LEFT, CAPS)
    assert exhaustive
    by_size = sorted(ideals, key=lambda i: -i.size)
    assert [i.size for i in by_size] == [27, 9, 3, 1]
    assert [quotient_length(z27, LEFT, i.sub, CAPS) for i in by_size] == [0, 1, 2, 3]
    assert jacobson_radical(z27).size == prime_radical(z27).size == 9
    nil = fresh(cyclic_ring(27, 3))
    assert jacobson_radical(nil).size == prime_radical(nil).size == 27
