"""The ideal correspondence between R and R^G on the action context (meet,
restriction, extension) and the cached quotient length, against their
elementwise definitions on the named catalog and a seeded random sample."""

import pytest

from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances
from ringinv.radicals import (
    SizeCap,
    enumerate_ideals,
    jacobson_radical,
    module_length,
    quotient_length,
    ring_as_module,
)
from ringinv.ring_core import LEFT, RIGHT, generated_ideal


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


def _fresh_length(ring, side, sub, caps):
    try:
        return module_length(ring_as_module(ring, side).quotient(sub), caps)
    except SizeCap:
        return None


def test_quotient_length_matches_a_fresh_quotient_module(contexts):
    small = Caps(module_order=4)
    capped = 0
    for ctx in contexts:
        image = ctx.fixed_image()
        for side in (LEFT, RIGHT):
            pairs = [(ctx.ring, i.sub) for i in _ring_ideals(ctx, side)]
            pairs += [(image.ring, j.sub) for j in enumerate_ideals(image.ring, side)[0]]
            for ring, sub in pairs:
                for caps in (Caps(), small):
                    expected = _fresh_length(ring, side, sub, caps)
                    assert quotient_length(ring, side, sub, caps) == expected, ring.name
                    capped += expected is None
    assert capped > 0
