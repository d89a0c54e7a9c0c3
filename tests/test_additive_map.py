"""Kernels, preimages and everything built on them, against their elementwise
definitions on the named catalog and a seeded random sample."""

import pytest

from ringinv.catalog import named_instances, random_instances
from ringinv.groups import fixed_subgroup
from ringinv.invariants import unit_group
from ringinv.radicals import principal_ideal, regular_elements_quotient
from ringinv.ring_core import (
    LEFT,
    AdditiveGroup,
    AdditiveMap,
    RingError,
    Subgroup,
    inverse,
)


@pytest.fixture(scope="module")
def instances():
    rand, _ = random_instances(40, seed=20260808)
    return list(named_instances()) + rand


def _apply(codomain, images, x):
    out = codomain.zero
    for c, image in zip(x, images):
        out = codomain.add(out, codomain.smul(c, image))
    return out


def _maps(ring, group):
    """(codomain, images) of a few additive maps out of the ring's group."""
    gens = ring.generators()
    elems = sorted(ring.elements())
    r = elems[len(elems) // 2]
    pairs = AdditiveGroup(ring.cyclic_orders * 2)
    moved = [ring.sub(a, g) for a, g in zip(group.elements[-1].images, gens)]
    return [
        (ring.additive, [ring.mul(r, g) for g in gens]),
        (ring.additive, moved),
        (pairs, [ring.mul(g, r) + ring.mul(r, g) for g in gens]),
    ]


def test_kernel_and_preimage_match_elementwise(instances):
    for inst in instances:
        ring = inst.ring
        for codomain, images in _maps(ring, inst.group):
            f = AdditiveMap(ring.additive, images, codomain.relations)
            values = {x: _apply(codomain, images, x) for x in ring.elements()}
            assert f.kernel.elements() == frozenset(
                x for x, y in values.items() if not any(y)), inst.name
            reached = set(values.values())
            for y in codomain.elements():
                x = f.preimage(y)
                if y in reached:
                    assert x is not None and values[x] == y, inst.name
                else:
                    assert x is None, inst.name


def test_map_must_be_well_defined():
    # Z/2 -> Z/3 sending the generator to 1 is not additive
    with pytest.raises(RingError):
        AdditiveMap(AdditiveGroup((2,)), [(1,)], AdditiveGroup((3,)).relations)


def test_rank_deficient_graph_lattice_is_rejected():
    group, target = AdditiveGroup((2, 2)), AdditiveGroup((3,))
    # sources that span a rank-1 lattice in Z^2
    for sources in ([(1, 0)], [(1, 0), (1, 0)]):
        with pytest.raises(RingError, match="full rank"):
            AdditiveMap(group, [(0,)] * len(sources), target.relations, sources=sources)
    # relations that span a rank-1 lattice in Z^2
    with pytest.raises(RingError, match="full rank"):
        AdditiveMap(AdditiveGroup((2,)), [(1, 0)], ((2, 0), (4, 0)))


def test_intersect_matches_elementwise(instances):
    for inst in instances:
        ring = inst.ring
        elems = sorted(ring.elements())
        subs = [inst.context().fixed.sub, Subgroup.zero(ring.additive),
                Subgroup.from_generators(ring.additive, ring.generators())]
        subs += [principal_ideal(ring, x, LEFT).sub for x in elems[1::max(1, len(elems) // 5)]]
        subs += [Subgroup.from_generators(ring.additive, [x]) for x in elems[::7]]
        for a in subs:
            for b in subs:
                meet = a.intersect(b)
                assert meet.elements() == a.elements() & b.elements(), inst.name
                assert meet == b.intersect(a)


def test_fixed_subgroup_matches_elementwise(instances):
    for inst in instances:
        ring, auts = inst.ring, inst.group.elements
        expected = {x for x in ring.elements() if all(a.apply(x) == x for a in auts)}
        assert fixed_subgroup(ring, auts).elements() == expected, inst.name
        for a in auts:
            assert fixed_subgroup(ring, [a]).elements() == {
                x for x in ring.elements() if a.apply(x) == x}, inst.name


def _inverse_by_search(ring, u):
    return next((y for y in ring.elements()
                 if ring.mul(u, y) == ring.unit and ring.mul(y, u) == ring.unit), None)


def test_inverse_and_units_match_elementwise(instances):
    for inst in instances:
        ring = inst.ring
        if not ring.is_unital:
            assert unit_group(ring) == []
            assert inverse(ring, ring.zero) is None
            continue
        units = []
        for x in ring.elements():
            inv = inverse(ring, x)
            assert inv == _inverse_by_search(ring, x), (inst.name, x)
            if inv is not None:
                units.append(x)
        assert unit_group(ring) == units, inst.name


def test_regular_elements_match_elementwise(instances):
    for inst in instances:
        ring = inst.ring
        nonzero = [x for x in ring.elements() if any(x)]
        expected = tuple(sorted(
            r for r in ring.elements()
            if all(any(ring.mul(r, x)) and any(ring.mul(x, r)) for x in nonzero)))
        got = regular_elements_quotient(ring)
        assert got.regular == expected, inst.name
        if ring.is_unital:
            assert got.units == tuple(sorted(
                x for x in ring.elements() if _inverse_by_search(ring, x) is not None))

