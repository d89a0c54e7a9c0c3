import pytest

from ringinv.caps import DEFAULT_CAPS, Caps
from ringinv.groups import RingAutomorphism, close_group, trivial_group
from ringinv.invariants import (
    GActionContext,
    NotInvertible,
    averaging_idempotent,
    centralizer_normalizer,
    degenerate_trace_ideal,
    enumerate_splittings,
    inner_automorphism,
    is_proper_splitting,
    subgroup_power_nilpotency,
    torsion_ideal,
)
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    SIDES,
    TWOSIDED,
    RingError,
    Subgroup,
    SubringView,
    cyclic_ring,
    direct_product,
    generated_ideal,
    matrix_ring,
    zero_mult_ring,
)

from oracles import relative_trace
from test_ring_core import oracle_instances


def f3xf3_ctx():
    r = direct_product([cyclic_ring(3), cyclic_ring(3)], name="f3xf3")
    g = close_group([RingAutomorphism(r, [r.generator(1), r.generator(0)])])
    return GActionContext(r, g, group_name="swap")


def f2xf2_ctx():
    r = direct_product([cyclic_ring(2), cyclic_ring(2)], name="f2xf2")
    g = close_group([RingAutomorphism(r, [r.generator(1), r.generator(0)])])
    return GActionContext(r, g, group_name="swap")


def two_z8_ctx():
    r = cyclic_ring(4, c=2, name="two_z8")
    g = close_group([RingAutomorphism(r, [(3,)])])
    return GActionContext(r, g, group_name="negation")


def zm_f4_ctx():
    r = zero_mult_ring((2, 2), name="zm_f4")
    mult_omega = RingAutomorphism(r, [(0, 1), (1, 1)])
    frobenius = RingAutomorphism(r, [(1, 0), (1, 1)])
    return GActionContext(r, close_group([mult_omega, frobenius]),
                          group_name="c6")


def m2f2_ctx():
    r = matrix_ring(cyclic_ring(2), 2, name="m2f2")
    u = (1, 1, 0, 1)  # I + e12
    g = close_group([inner_automorphism(r, u)])
    return GActionContext(r, g, group_name="inner")


# -- fixed rings and traces ------------------------------------------------------

def test_fixed_ring_trivial():
    r = cyclic_ring(12)
    ctx = GActionContext(r, trivial_group(r))
    assert ctx.fixed.size == r.order


def test_fixed_ring_swap_diagonal():
    ctx = f2xf2_ctx()
    assert ctx.fixed.elements() == frozenset({(0, 0), (1, 1)})


def test_fixed_ring_negation():
    ctx = two_z8_ctx()
    # fixed elements of x -> -x in 2Z/8Z are {0, 4}; 4 is coordinate (2,)
    assert ctx.fixed.elements() == frozenset({(0,), (2,)})


def test_trace_swap():
    ctx = f2xf2_ctx()
    assert ctx.trace((1, 0)) == (1, 1)
    for r in ctx.ring.elements():
        assert ctx.fixed.contains(ctx.trace(r))
        for g in ctx.group.elements:
            assert ctx.trace(g.apply(r)) == ctx.trace(r)


def test_trace_negation_vanishes():
    ctx = two_z8_ctx()
    for r in ctx.ring.elements():
        assert ctx.trace(r) == ctx.ring.zero


def test_trace_trivial_group_is_identity():
    r = cyclic_ring(6)
    ctx = GActionContext(r, trivial_group(r))
    for x in r.elements():
        assert ctx.trace(x) == x


def test_relative_trace_extremes():
    ctx = f3xf3_ctx()
    g = ctx.group
    # over the whole group: identity on fixed elements
    for x in ctx.fixed.elements():
        assert relative_trace(ctx.ring, g, g, x) == x
    # over the trivial subgroup: the ordinary trace
    triv = trivial_group(ctx.ring)
    for x in ctx.ring.elements():
        assert relative_trace(ctx.ring, g, triv, x) == ctx.trace(x)


def test_relative_trace_needs_fixed_input():
    ctx = f3xf3_ctx()
    with pytest.raises(RingError):
        relative_trace(ctx.ring, ctx.group, ctx.group, (1, 0))


# -- torsion and bad primes ---------------------------------------------------------

def test_torsion_ideal_z12():
    r = cyclic_ring(12)
    assert torsion_ideal(r, 2).elements() == frozenset({(0,), (3,), (6,), (9,)})
    assert torsion_ideal(r, 3).elements() == frozenset({(0,), (4,), (8,)})


def test_torsion_ideal_trivial_and_full():
    assert torsion_ideal(cyclic_ring(3), 2).is_zero()
    r = cyclic_ring(4, c=2)
    assert torsion_ideal(r, 2).size == r.order


def test_torsion_ideal_is_invariant():
    ctx = zm_f4_ctx()
    tor = torsion_ideal(ctx.ring, 2)
    for g in ctx.group.elements:
        for b in tor.basis:
            assert tor.contains(g.apply(b))


def test_bad_primes_empty_for_torsion_free():
    ctx = f3xf3_ctx()
    profile = ctx.bad_primes()
    assert profile.primes == ()
    # torsion-free iff multiplication by |G| is injective
    seen = {ctx.ring.smul(ctx.n, x) for x in ctx.ring.elements()}
    assert len(seen) == ctx.ring.order


def test_bad_primes_two_z8():
    ctx = two_z8_ctx()
    profile = ctx.bad_primes()
    assert profile.primes == (2,)
    data = profile.data[2]
    assert data.torsion.size == ctx.ring.order
    assert data.complement is not None and data.complement.order == 1


def test_bad_primes_zm_f4():
    ctx = zm_f4_ctx()
    profile = ctx.bad_primes()
    # 3 divides |G| = 6 but the additive group is a 2-group
    assert profile.primes == (2,)
    data = profile.data[2]
    assert data.complement.order == 3
    assert data.quotient_order == 2
    assert data.fixed_image.ring.order == 1
    assert data.d == 1


def test_torsion_free_equivalence_on_catalog_like_rings():
    for ctx in (f3xf3_ctx(), f2xf2_ctx(), two_z8_ctx(), zm_f4_ctx()):
        empty = ctx.bad_primes().primes == ()
        injective = len({ctx.ring.smul(ctx.n, x) for x in ctx.ring.elements()}) \
            == ctx.ring.order
        assert empty == injective


# -- extension and restriction ---------------------------------------------------------

def _fixed_subgroup(ctx, elements):
    """The subgroup of the fixed ring spanned by elements of R^G."""
    image = ctx.fixed_image()
    return Subgroup.from_generators(image.ring.additive,
                                    [image.to_image(x) for x in elements])


def test_extend_restrict_zero():
    ctx = f3xf3_ctx()
    j = ctx.extend(_fixed_subgroup(ctx, []), TWOSIDED)
    assert j.is_zero()


def test_extend_diagonal_generates_everything():
    ctx = f3xf3_ctx()
    j_e = ctx.extend(_fixed_subgroup(ctx, [(1, 1)]), TWOSIDED)
    assert j_e.size == 9
    restricted = ctx.restrict(j_e.sub)
    assert restricted.size == ctx.fixed.size


def test_restrict_whole_ring():
    ctx = f3xf3_ctx()
    whole = generated_ideal(ctx.ring, list(ctx.ring.generators()), TWOSIDED)
    r = ctx.restrict(whole.sub)
    assert r.size == ctx.fixed.size


def test_extension_contains_generators():
    ctx = two_z8_ctx()
    j = ctx.extend(_fixed_subgroup(ctx, [(2,)]), LEFT)
    assert j.contains((2,))


# -- averaging idempotent ----------------------------------------------------------------

def test_averaging_f3xf3():
    ctx = f3xf3_ctx()
    sd = averaging_idempotent(ctx)
    assert sd.project((1, 0)) == (2, 2)
    for r in ctx.ring.elements():
        e_r = sd.project(r)
        assert ctx.fixed.contains(e_r)
        assert sd.complement.contains(ctx.ring.sub(r, e_r))
    assert sd.complement.elements() == frozenset({(0, 0), (1, 2), (2, 1)})


def test_averaging_not_invertible_char2():
    ctx = f2xf2_ctx()
    with pytest.raises(NotInvertible):
        averaging_idempotent(ctx)


def test_averaging_trivial_group():
    r = cyclic_ring(5)
    ctx = GActionContext(r, trivial_group(r))
    sd = averaging_idempotent(ctx)
    assert sd.complement.is_zero()
    for x in r.elements():
        assert sd.project(x) == x


# -- splitting search ---------------------------------------------------------------------

def test_splitting_search_f3xf3_antidiagonal():
    ctx = f3xf3_ctx()
    found, exhaustive = ctx.splittings()
    assert exhaustive
    keys = {sd.complement.key for sd in found}
    avg = averaging_idempotent(ctx)
    assert avg.complement.key in keys  # image(1-e) is among the complements
    # the averaging complement is the anti-diagonal
    assert avg.complement.elements() == frozenset({(0, 0), (1, 2), (2, 1)})


def test_splitting_search_none_found():
    found, exhaustive = m2f2_ctx().splittings()
    assert found == [] and exhaustive


def test_splitting_search_trivial_fixed_ring():
    r = cyclic_ring(9)
    ctx = GActionContext(r, trivial_group(r))
    found, _ = ctx.splittings()
    assert found[0].key == averaging_idempotent(ctx).key


def test_exhaustive_splittings_contain_the_averaging_complement(named_catalog,
                                                                named_contexts):
    """Whenever |G| is invertible, an exhaustive enumeration of the
    splittings includes the one the averaging idempotent gives."""
    seen = 0
    for inst in named_catalog:
        ctx = named_contexts[inst.name]
        try:
            avg = averaging_idempotent(ctx)
        except NotInvertible:
            continue
        found, exhaustive = ctx.splittings()
        if exhaustive:
            seen += 1
            assert avg.key in {sd.key for sd in found}, inst.name
    assert seen


def test_splitting_trivial_group_is_zero_complement():
    r = cyclic_ring(9)
    ctx = GActionContext(r, trivial_group(r))
    found, exhaustive = ctx.splittings()
    assert exhaustive and len(found) == 1
    assert found[0].complement.is_zero()


def test_trivial_group_fixed_image_is_the_ring():
    """Under G = 1 on a ring whose orders form a divisibility chain, R^G is
    R's own object and both coordinate maps are the identity."""
    for r in (direct_product([cyclic_ring(2), cyclic_ring(4)]),
              matrix_ring(cyclic_ring(2), 2), cyclic_ring(12)):
        ctx = GActionContext(r, trivial_group(r))
        image = ctx.fixed_image()
        assert image.ring is ctx.ring
        for x in r.elements():
            assert image.to_image(x) == x and image.from_image(x) == x


def test_trivial_group_on_other_smith_coordinates_keeps_a_copy():
    r = direct_product([cyclic_ring(2), cyclic_ring(3)], name="f2xf3")
    ctx = GActionContext(r, trivial_group(r))
    image = ctx.fixed_image()
    assert image.ring is not r
    assert image.ring.cyclic_orders == (6,)
    for x in r.elements():
        assert image.from_image(image.to_image(x)) == x


def test_identity_splitting_respects_the_enumeration_cap():
    r = cyclic_ring(9)
    ctx = GActionContext(r, trivial_group(r))
    assert enumerate_splittings(ctx, Caps(splitting_enum=0)) == ([], False)
    found, exhaustive = enumerate_splittings(ctx, Caps(splitting_enum=1))
    assert exhaustive and [sd.complement.is_zero() for sd in found] == [True]
    assert found[0].projection == r.generators()


def test_splitting_zero_fixed_ring():
    ctx = zm_f4_ctx()
    found, exhaustive = ctx.splittings()
    assert exhaustive and len(found) == 1
    assert found[0].complement.size == ctx.ring.order


def test_no_splitting_for_two_z8():
    ctx = two_z8_ctx()
    found, exhaustive = ctx.splittings()
    assert exhaustive
    assert found == []


def test_unique_decomposition_under_splitting():
    ctx = f3xf3_ctx()
    sd = averaging_idempotent(ctx)
    for r in ctx.ring.elements():
        e_r = sd.project(r)
        b = ctx.ring.sub(r, e_r)
        assert ctx.fixed.contains(e_r) and sd.complement.contains(b)
        # uniqueness: no other fixed component works
        for s in ctx.fixed.elements():
            if s != e_r:
                assert not sd.complement.contains(ctx.ring.sub(r, s))


# -- proper splittings ---------------------------------------------------------------------

def m2f3_ctx():
    r = matrix_ring(cyclic_ring(3), 2, name="m2f3")
    g = close_group([inner_automorphism(r, (1, 0, 0, 2))])
    return GActionContext(r, g, group_name="inner")


def test_averaging_is_proper_both_sides():
    """Whenever the group order is invertible, the averaging splitting is a
    left and right proper splitting."""
    for make in (f3xf3_ctx, m2f3_ctx):
        ctx = make()
        sd = averaging_idempotent(ctx)
        for side in (LEFT, RIGHT):
            report = is_proper_splitting(ctx, sd, side)
            assert report.status == "yes"
            assert report.equality_holds


def test_trivial_splitting_vacuously_proper():
    r = cyclic_ring(12)
    ctx = GActionContext(r, trivial_group(r))
    found, _ = ctx.splittings()
    report = is_proper_splitting(ctx, found[0], LEFT)
    assert report.status == "yes"


def test_f2xf2_swap_has_proper_splitting():
    ctx = f2xf2_ctx()
    sd, status = ctx.proper_splitting(LEFT)
    assert status == "yes"
    assert sd.complement.size == 2


# -- centralizer / normalizer ----------------------------------------------------------------

def test_centralizer_of_whole_ring_is_center():
    r = matrix_ring(cyclic_ring(2), 2, name="m2f2")
    whole = SubringView.from_elements(r, r.generators())
    data = centralizer_normalizer(r, whole)
    assert data.centralizer.elements() == frozenset({(0, 0, 0, 0), (1, 0, 0, 1)})


def test_centralizer_of_scalars_is_everything():
    r = matrix_ring(cyclic_ring(2), 2)
    scalars = SubringView.from_elements(r, [(1, 0, 0, 1)])
    data = centralizer_normalizer(r, scalars)
    assert data.centralizer.size == r.order


def test_centralizer_upper_triangulars():
    r = matrix_ring(cyclic_ring(2), 2)
    upper = SubringView.from_elements(r, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    data = centralizer_normalizer(r, upper)
    # independent oracle: elementwise commutation scan
    expected = [b for b in r.elements()
                if all(r.mul(b, a) == r.mul(a, b) for a in upper.elements())]
    assert data.centralizer.elements() == frozenset(
        Subgroup.from_generators(r.additive, expected).elements())
    assert all(data.normalizer.contains(x) for x in data.centralizer.basis)
    # the unit I + e12 normalizes and its inner map is an automorphism
    u = (1, 1, 0, 1)
    aut = inner_automorphism(r, u)
    assert aut.order() == 2


def test_subgroup_power_nilpotency_cases():
    r = zero_mult_ring((3, 3))
    whole = Subgroup.from_generators(r.additive, r.generators())
    d, stab = subgroup_power_nilpotency(r, whole, 16)
    assert d == 2 and not stab
    unital = cyclic_ring(5)
    whole5 = Subgroup.from_generators(unital.additive, unital.generators())
    d5, stab5 = subgroup_power_nilpotency(unital, whole5, 16)
    assert d5 is None and stab5
    # the cap bounds the powers tried: the square is the first that vanishes
    assert subgroup_power_nilpotency(r, whole, 1) == (None, False)
    assert subgroup_power_nilpotency(r, whole, 2) == (2, False)


# -- nondegenerate trace -------------------------------------------------------------------

def test_nondegenerate_trace_f3xf3():
    assert degenerate_trace_ideal(f3xf3_ctx(), DEFAULT_CAPS, False) == (None, None, False)


def test_degenerate_trace_two_z8():
    ctx = two_z8_ctx()
    ideal, d, capped = degenerate_trace_ideal(ctx, DEFAULT_CAPS, False)
    assert not ideal.is_zero() and d == 1 and not capped
    assert ctx.trace_image(ideal.basis).is_zero()


def test_nondegenerate_trace_trivial_group_semiprime():
    r = direct_product([cyclic_ring(2), cyclic_ring(3)])
    ctx = GActionContext(r, trivial_group(r))
    assert degenerate_trace_ideal(ctx, DEFAULT_CAPS, False) == (None, None, False)


def test_invariant_ideal_from_matches_generated_ideal():
    """The join of the orbit's principal ideals is the ideal the orbit
    generates."""
    nontrivial = [inst for inst in oracle_instances() if inst.group.order > 1]
    assert nontrivial
    for inst in nontrivial:
        ctx, ring = inst.context(), inst.ring
        for side in SIDES:
            for x in ring.elements():
                orbit = {g.apply(x) for g in inst.group.elements}
                assert (ctx.invariant_ideal_from(x, side).key
                        == generated_ideal(ring, orbit, side).key), (inst.name, side, x)
