"""One induced action, `groups.induced_action`, for R^N and for R/J.

The bad-prime trace images (G/N acting on the fixed ring of the normal
p-complement N) and the bar group of the radical quotient are built from it.
Each is compared here with the construction it replaced: the per-element
relative trace (`oracles.relative_trace`) and the per-element loop over G on
the quotient generators, on the named catalog, `random_instances(100, s)`
for two seeds and the ladder rings.
"""

import pytest

from ringinv.catalog import named_instances, random_instances
from ringinv.groups import (
    AutomorphismGroup,
    GroupError,
    RingAutomorphism,
    close_group,
    fixed_ring,
    induced_action,
    trivial_group,
)
from ringinv.invariants import GActionContext
from ringinv.radicals import radical_profile
from ringinv.ring_core import Subgroup, cyclic_ring, direct_product, quotient_by_ideal
from ringinv.theorems import _quotient_context

from oracles import relative_trace
from test_ladder import ladder_instances

SEEDS = (20260808, 20260909)


@pytest.fixture(scope="module")
def instances():
    out = named_instances()
    for seed in SEEDS:
        out.extend(random_instances(100, seed)[0])
    return out + ladder_instances()


def test_bad_prime_trace_images_match_the_relative_trace(instances):
    """The trace image of each bad prime with a normal p-complement N is the
    span of the relative traces of all elements of R^N."""
    seen = 0
    for inst in instances:
        ctx = inst.context()
        for p, data in ctx.bad_primes().data.items():
            if data.complement is None:
                continue
            seen += 1
            image, comp = data.fixed_image, data.complement
            expected = Subgroup.from_generators(image.ring.additive, [
                image.to_image(relative_trace(ctx.ring, ctx.group, comp, x))
                for x in fixed_ring(ctx.ring, comp).elements()])
            assert data.trace_image == expected, (inst.name, p)
    assert seen == 20


def test_the_relative_trace_sums_over_cosets():
    """S3 permuting the factors of (Z/6)^3: N = A3 is the normal
    2-complement, R^N is the diagonal copy of Z/6 and the transpositions fix
    it, so the relative trace is y -> 2y, with an image of order 3.  A sum
    over all of G, y -> 6y = 0, would have none."""
    ring = direct_product([cyclic_ring(6)] * 3, name="z6^3")
    e = [ring.generator(i) for i in range(3)]
    group = close_group([RingAutomorphism(ring, [e[1], e[2], e[0]]),
                         RingAutomorphism(ring, [e[1], e[0], e[2]])])
    data = GActionContext(ring, group).bad_primes().data[2]
    assert (group.order, data.complement.order) == (6, 3)
    assert data.trace_image.size == 3
    image = data.fixed_image
    assert data.trace_image == Subgroup.from_generators(image.ring.additive, [
        image.to_image(relative_trace(ring, group, data.complement, x))
        for x in fixed_ring(ring, data.complement).elements()])


def _per_element_bar_group(ctx, quot):
    """The group G induces on R/J, one validated automorphism per distinct
    image tuple of the quotient generators."""
    induced = {}
    qgens = quot.ring.generators()
    for g in ctx.group.elements:
        images = tuple(quot.to_image(g.apply(quot.from_image(e))) for e in qgens)
        if images not in induced:
            induced[images] = RingAutomorphism(quot.ring, images)
    return AutomorphismGroup(quot.ring, induced.values())


def test_radical_quotient_group_matches_the_per_element_loop(instances):
    seen = 0
    for inst in instances:
        ctx = inst.context()
        rad = radical_profile(ctx.ring).jacobson_radical
        if rad.is_zero() or ctx.n == 1:
            continue
        seen += 1
        bar_ctx, _ = _quotient_context(ctx)
        quot = quotient_by_ideal(ctx.ring, rad)
        expected = _per_element_bar_group(ctx, quot)
        assert ([a.images for a in bar_ctx.group.elements]
                == [a.images for a in expected.elements]), inst.name
    assert seen == 19


def test_induced_action_keys_every_element_and_shares_equal_images(instances):
    for inst in instances:
        group = inst.group
        action = induced_action(group, fixed_ring(inst.ring, group).image())
        assert set(action) == {g.images for g in group.elements}
        # G acts trivially on R^G: every element induces one shared identity
        assert len({id(a) for a in action.values()}) == 1
        assert next(iter(action.values())).is_identity()


def test_a_normal_subgroup_that_moves_the_image_is_rejected(instances):
    """On R itself (the fixed ring of the trivial group) the cosets of G
    induce one automorphism each only when G = 1."""
    for inst in instances:
        ring, group = inst.ring, inst.group
        whole = fixed_ring(ring, trivial_group(ring)).image()
        if group.order == 1:
            assert induced_action(group, whole, normal=group)
            continue
        with pytest.raises(GroupError):
            induced_action(group, whole, normal=group)
