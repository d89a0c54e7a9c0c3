"""The ideal correspondence between R and R^G on the action context (meet,
restriction, extension) against its elementwise definition, and composition
lengths against the longest chains of the exhaustive ideal lattices, on the
named catalog and a seeded random sample."""

import pytest

from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances
from ringinv.radicals import (
    enumerate_ideals,
    jacobson_radical,
    module_length,
    quotient_length,
)
from ringinv.ring_core import LEFT, RIGHT, Subgroup, generated_ideal

from oracles import ring_as_module


@pytest.fixture(scope="module")
def contexts():
    rand, _ = random_instances(40, seed=20260808)
    return [inst.context() for inst in list(named_instances()) + rand]


def _ring_ideals(ctx, side):
    ideals, _ = ctx.invariant_ideals(side)
    return ideals + [jacobson_radical(ctx.ring)]


def test_meet_and_restrict_are_the_fixed_elements(contexts):
    for ctx in contexts:
        image = ctx.fixed_image()
        fixed = {x for x in ctx.ring.elements()
                 if all(g.apply(x) == x for g in ctx.group.elements)}
        for side in (LEFT, RIGHT):
            for ideal in _ring_ideals(ctx, side):
                meet = {x for x in ideal.elements() if x in fixed}
                assert ctx.meet(ideal.sub).elements() == meet, ctx.ring_name
                assert ctx.restrict(ideal.sub).elements() == {
                    image.to_image(x) for x in meet}, ctx.ring_name


def test_extend_is_the_ideal_generated_by_the_embedded_elements(contexts):
    for ctx in contexts:
        image = ctx.fixed_image()
        for side in (LEFT, RIGHT):
            for j in enumerate_ideals(image.ring, side)[0]:
                embedded = [image.from_image(y) for y in j.elements()]
                assert ctx.extend(j.sub, side) == generated_ideal(
                    ctx.ring, embedded, side), ctx.ring_name


def _chain_lengths(ring, side):
    """{key of I: longest chain of sided ideals from I up to R}, computed over
    the exhaustive ideal lattice (largest ideals first)."""
    ideals, exhaustive = enumerate_ideals(ring, side)
    assert exhaustive, ring.name
    done = []
    longest = {}
    for sub in sorted((i.sub for i in ideals), key=lambda s: -s.size):
        longest[sub.key] = max((1 + longest[t.key] for t in done if t.size > sub.size
                                and all(t.contains(x) for x in sub.basis)), default=0)
        done.append(sub)
    return longest


def test_lengths_match_the_longest_ideal_chain(contexts):
    small = Caps(module_order=4)
    capped = 0
    for ctx in contexts:
        image = ctx.fixed_image()
        for side in (LEFT, RIGHT):
            for ring, ideals in ((ctx.ring, _ring_ideals(ctx, side)),
                                 (image.ring, enumerate_ideals(image.ring, side)[0])):
                longest = _chain_lengths(ring, side)
                zero = Subgroup.zero(ring.additive)
                assert module_length(ring_as_module(ring, side)) == longest[zero.key]
                for ideal in ideals:
                    expected = longest[ideal.key]
                    assert quotient_length(ring, side, ideal.sub) == expected, ring.name
                    expected = expected if ring.order // ideal.size <= 4 else None
                    assert quotient_length(ring, side, ideal.sub, small) == expected
                    capped += expected is None
    assert capped > 0
