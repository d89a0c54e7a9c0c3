"""Cross-validation of independent computation routes on structured rings."""

from ringinv.caps import Caps
from ringinv.catalog import cayley_cyclic, named_instances, random_instances
from ringinv.groups import RingAutomorphism, close_group, p_normal_complement
from ringinv.invariants import GActionContext, _make_splitting
from ringinv.radicals import (
    is_quasi_regular,
    jacobson_radical,
    module_length,
    nilpotency_index,
    prime_radical,
    principal_ideal,
    uniform_dimension,
)
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    TWOSIDED,
    RingError,
    Subgroup,
    cyclic_ring,
    generated_ideal,
    group_ring,
    join_closure,
    matrix_ring,
    zero_mult_ring,
)

from oracles import relative_trace, ring_as_module


def _splittings_subgroup_search(ctx: GActionContext, caps: Caps):
    """Oracle: every complement of R^G found in the lattice of subgroups."""
    ring = ctx.ring
    fixed = ctx.fixed.sub
    target = ring.order // fixed.size
    subgroups, exhaustive = join_closure(
        (Subgroup.from_generators(ring.additive, [x]) for x in ring.elements()),
        caps.splitting_enum * 8)
    out = {}
    for sub in subgroups:
        if sub.size != target or not fixed.intersect(sub).is_zero():
            continue
        try:
            sd = _make_splitting(ring, fixed, sub)
        except RingError:
            continue
        out[sd.key] = sd
    found = sorted(out.values(), key=lambda sd: sd.key)
    return found, exhaustive


def klein_four_cayley():
    # elements 0..3 with xor composition
    return [[a ^ b for b in range(4)] for a in range(4)]


def s3_cayley():
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return [[index[compose(p, q)] for q in perms] for p in perms]


def test_group_ring_f2_klein_four_radical():
    """For a p-group over characteristic p the radical is the augmentation
    ideal, of index |F| in the group ring."""
    r = group_ring(cyclic_ring(2), klein_four_cayley(), name="f2v4")
    assert r.order == 16
    rad = jacobson_radical(r)
    assert rad.size == 8
    # the augmentation (coefficient sum) vanishes exactly on the radical
    for x in rad.elements():
        assert sum(x) % 2 == 0


def test_group_ring_f2_s3_radical():
    # the semisimple quotient of F2[S3] is F2 x M2(F2) (dimension 5), so the
    # radical is one-dimensional
    r = group_ring(cyclic_ring(2), s3_cayley(), name="f2s3")
    assert r.order == 64
    rad = jacobson_radical(r)
    assert prime_radical(r).sub == rad.sub
    assert rad.size == 2
    for x in rad.elements():
        assert sum(x) % 2 == 0


def dihedral_cayley():
    # D4 as the symmetries (r^a s^b), 0 <= a < 4, b in {0,1}
    elems = [(a, b) for b in range(2) for a in range(4)]
    index = {e: i for i, e in enumerate(elems)}

    def compose(x, y):
        a1, b1 = x
        a2, b2 = y
        # (r^a1 s^b1)(r^a2 s^b2) = r^(a1 + a2*(-1)^b1) s^(b1+b2)
        return ((a1 + (a2 if b1 == 0 else -a2)) % 4, (b1 + b2) % 2)

    return [[index[compose(x, y)] for y in elems] for x in elems]


def test_group_ring_f2_d4_is_local():
    # a p-group over characteristic p gives a local group ring whose radical
    # is the augmentation ideal, of index 2 here
    r = group_ring(cyclic_ring(2), dihedral_cayley(), name="f2d4")
    assert r.order == 256
    rad = jacobson_radical(r)
    assert rad.size == 128
    for x in rad.elements():
        assert sum(x) % 2 == 0


def test_group_ring_maschke_direction():
    # |C3| = 3 is invertible in characteristic 2 and 5
    assert jacobson_radical(
        group_ring(cyclic_ring(2), cayley_cyclic(3))).is_zero()
    assert jacobson_radical(
        group_ring(cyclic_ring(5), cayley_cyclic(3))).is_zero()


def test_matrix_ring_z4_radical():
    """rad(M_n(R)) = M_n(rad(R)): over Z/4 the radical is the matrices with
    even entries."""
    r = matrix_ring(cyclic_ring(4), 2, name="m2z4")
    assert r.order == 256
    rad = jacobson_radical(r)
    assert rad.size == 16
    for x in rad.elements():
        assert all(c % 2 == 0 for c in x)


def test_principal_one_sided_ideals_of_matrix_units():
    r = matrix_ring(cyclic_ring(2), 2, name="m2f2")
    e11 = (1, 0, 0, 0)
    left = principal_ideal(r, e11, LEFT)
    right = principal_ideal(r, e11, RIGHT)
    # left multiples of e11 form the first column, right multiples the first row
    assert left.size == 4
    assert all(x[1] == 0 and x[3] == 0 for x in left.elements())
    assert right.size == 4
    assert all(x[2] == 0 and x[3] == 0 for x in right.elements())


def test_c6_has_both_normal_complements():
    """An honest cyclic C6: unit multiplications on zero-mult Z/7."""
    r = zero_mult_ring((7,), name="zm_z7")
    g = close_group([RingAutomorphism(r, [(3,)])])  # 3 has order 6 mod 7
    assert g.order == 6
    n2 = p_normal_complement(g, 2)
    n3 = p_normal_complement(g, 3)
    assert n2 is not None and n2.order == 3
    assert n3 is not None and n3.order == 2
    orders = sorted(a.order() for a in g.elements)
    assert orders == [1, 2, 3, 3, 6, 6]


def _is_elementary_abelian(orders) -> bool:
    p = orders[0] if orders else 1
    return len(set(orders)) == 1 and p > 1 and all(p % d for d in range(2, p))


def test_linear_splitting_solver_matches_subgroup_search():
    """The linear splitting solver and the raw subgroup search must find the
    same complements: on elementary abelian instances, on two_z8, and on
    the seeded random rings whose additive group is not elementary abelian
    and whose fixed ring is proper and nonzero."""
    cases = [inst for inst in named_instances()
             if inst.name in ("f3xf3", "f2xf2", "zm_f4", "zm_f9", "m2f2",
                              "m2f3", "composite_s3", "two_z8")]
    rand, _ = random_instances(100, seed=20260808)
    mixed = [inst for inst in rand
             if not _is_elementary_abelian(inst.ring.cyclic_orders)
             and 1 < inst.context().fixed.size < inst.ring.order]
    assert mixed
    big_caps = Caps(splitting_enum=100000)
    for inst in cases + mixed:
        ctx_linear = inst.context()
        linear, exh1 = ctx_linear.splittings(big_caps)
        ctx_brute = inst.context()
        brute, exh2 = _splittings_subgroup_search(ctx_brute, big_caps)
        assert exh1 and exh2
        assert {sd.complement.key for sd in linear} == \
               {sd.complement.key for sd in brute}, inst.name


def test_identity_splitting_matches_subgroup_search():
    """Under the trivial group the one splitting, built without a solve, is
    the one the subgroup search finds."""
    trivial = [inst for inst in named_instances() if inst.group.order == 1]
    assert trivial
    for inst in trivial:
        found, exhaustive = inst.context().splittings()
        brute, brute_exhaustive = _splittings_subgroup_search(inst.context(), Caps())
        assert exhaustive and brute_exhaustive
        assert [sd.key for sd in found] == [sd.key for sd in brute], inst.name
        assert [sd.projection for sd in found] == [sd.projection for sd in brute]


def test_no_splitting_of_m2z4_under_unipotent_conjugation():
    """M2(Z/4) under conjugation by I + e12 has no bimodule complement; the
    solver proves it exhaustively."""
    from ringinv.invariants import enumerate_splittings, inner_automorphism

    ring = matrix_ring(cyclic_ring(4), 2, name="m2z4")
    ctx = GActionContext(ring, close_group([inner_automorphism(ring, (1, 1, 0, 1))]))
    assert 1 < ctx.fixed.size < ring.order
    assert enumerate_splittings(ctx, Caps()) == ([], True)


def test_udim_greedy_matches_naive():
    """Naive maximal-independent-family search over whole ideal lattices, on
    five structured rings and every named-catalog ring with at most 40
    nonzero ideals on a side."""
    from ringinv.radicals import enumerate_ideals

    rings = [
        cyclic_ring(12),
        matrix_ring(cyclic_ring(2), 2),
        group_ring(cyclic_ring(2), cayley_cyclic(2)),
        zero_mult_ring((2, 2, 2)),
        cyclic_ring(4, c=2),
    ] + [inst.ring for inst in named_instances()]
    from ringinv.ring_core import Subgroup

    checked = 0
    for ring in rings:
        for side in (LEFT, RIGHT):
            ideals, exhaustive = enumerate_ideals(ring, side)
            assert exhaustive
            nonzero = [i for i in ideals if not i.is_zero()]
            if len(nonzero) > 40:
                continue
            best = 0

            def grow(start, span, count):
                nonlocal best
                best = max(best, count)
                for idx in range(start, len(nonzero)):
                    sub = nonzero[idx].sub
                    if span.intersect(sub).is_zero():
                        grow(idx + 1, span.join(sub), count + 1)

            grow(0, Subgroup.zero(ring.additive), 0)
            assert uniform_dimension(ring, side).value == best, (ring.name, side)
            checked += 1
    assert checked > len(rings)


def test_length_of_semisimple_ring_equals_udim():
    for ring in (matrix_ring(cyclic_ring(2), 2),
                 cyclic_ring(6),
                 group_ring(cyclic_ring(3), cayley_cyclic(2))):
        assert jacobson_radical(ring).is_zero()
        for side in (LEFT, RIGHT):
            cert = uniform_dimension(ring, side)
            length = module_length(ring_as_module(ring, side))
            assert cert.value == length, (ring.name, side)


def test_quotient_action_on_mixed_order_ring():
    """Order-4 cyclic action on zero-mult Z/16 with its order-2 subgroup:
    the induced action on the fixed subring is checked elementwise."""
    r = zero_mult_ring((16,), name="zm_z16")
    a = RingAutomorphism(r, [(3,)])
    assert a.order() == 4
    g = close_group([a])
    sq = close_group([a.compose(a)])  # x -> 9x, the order-2 subgroup
    assert sq.order == 2
    from ringinv.groups import fixed_ring, quotient_action

    s = fixed_ring(r, sq)
    assert s.elements() == frozenset({(c,) for c in range(0, 16, 2)})
    induced, coset_map = quotient_action(g, sq, s)
    assert induced.order == 2
    assert induced.ring.order == 8
    img = s.image()
    for x in s.elements():
        for aut in g.elements:
            expected = img.to_image(aut.apply(x))
            got = coset_map[aut.images].apply(img.to_image(x))
            assert got == expected
    # the relative trace over the quotient doubles landing in the full
    # fixed ring {0, 8}
    full_fixed = fixed_ring(r, g)
    assert full_fixed.elements() == frozenset({(0,), (8,)})
    for x in s.elements():
        assert relative_trace(r, g, sq, x) in full_fixed.elements()


def test_subquotient_machinery_randomized():
    """Seeded sweep: subring images and ideal quotients of random rings are
    honest ring maps in both directions."""
    import random as rnd

    from ringinv.catalog import random_instances
    from ringinv.radicals import enumerate_ideals
    from ringinv.ring_core import SubringView, quotient_by_ideal

    insts, _ = random_instances(30, seed=314, max_order=32)
    rng = rnd.Random(314)
    for inst in insts:
        ring = inst.ring
        elems = list(ring.elements())
        # random subring: multiplicative closure of a random element's powers
        x = rng.choice(elems)
        gens = {x}
        frontier = [x]
        while frontier:
            cur = frontier.pop()
            for nxt in (ring.mul(cur, x), ring.mul(x, cur)):
                if nxt not in gens:
                    gens.add(nxt)
                    frontier.append(nxt)
        sub = SubringView.from_elements(ring, gens)
        img = sub.image()
        assert img.ring.order == sub.size
        for a in sub.elements():
            assert img.from_image(img.to_image(a)) == a
            for b in list(sub.elements())[:8]:
                assert img.to_image(ring.mul(a, b)) == img.ring.mul(
                    img.to_image(a), img.to_image(b))
                assert img.to_image(ring.add(a, b)) == img.ring.add(
                    img.to_image(a), img.to_image(b))
        # random two-sided ideal quotient: lift is a section of project
        ideals, _ = enumerate_ideals(ring, "twosided")
        ideal = ideals[rng.randrange(len(ideals))]
        q = quotient_by_ideal(ring, ideal)
        for y in q.ring.elements():
            assert q.to_image(q.from_image(y)) == y
        for a in elems[:12]:
            assert ideal.contains(ring.sub(a, q.from_image(q.to_image(a))))


def test_composite_instance_is_properly_splitting():
    inst = {i.name: i for i in named_instances()}["composite_s3"]
    ctx = inst.context()
    for side in (LEFT, RIGHT):
        sd, status = ctx.proper_splitting(side)
        assert status == "yes"
        # the complement is the zero-times-R part
        assert sd.complement.size == 4
        for x in sd.complement.elements():
            assert x[0] == 0


def dual_numbers_f3():
    """F3[t]/(t^2): generators 1 and t."""
    from ringinv.ring_core import validate_ring

    table = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    return validate_ring((3, 3), table, unit_hint=(1, 0), name="f3dual")


def test_radical_restriction_nonvacuous_with_nontrivial_radicals():
    """Swap action on (F3[t]/t^2)^2: the group order is invertible and both
    radicals are nonzero, so the restriction equality carries real content."""
    from ringinv.ring_core import direct_product
    from ringinv.theorems import check

    base = dual_numbers_f3()
    ring = direct_product([base, base], name="f3dual_sq")
    swap = RingAutomorphism(
        ring, [ring.generator(2), ring.generator(3),
               ring.generator(0), ring.generator(1)])
    ctx = GActionContext(ring, close_group([swap]), group_name="swap")
    rad = jacobson_radical(ring)
    assert rad.size == 9  # t-multiples in both components
    report = check("RAD_1_4", ctx)
    assert report.verdict == "verified"
    assert all(h.status == "holds" for h in report.hypotheses)
    # the fixed ring is the diagonal copy of the dual numbers
    img = ctx.fixed_image()
    assert img.ring.order == 9
    assert jacobson_radical(img.ring).size == 3
    second = check("B5APR", ctx)
    assert second.verdict == "verified"


def test_h_constant_hand_computed_value():
    # product over i of (C(6,i)+1) = 7*16*21*16*7*2
    from ringinv.groups import h_constant
    assert h_constant(6) == 526848


def test_radical_metamorphic_laws():
    """rad(R/rad R) = 0 and rad(R x R') = rad(R) x rad(R') on random rings."""
    from ringinv.catalog import random_instances
    from ringinv.ring_core import direct_product, quotient_by_ideal

    insts, _ = random_instances(20, seed=2718, max_order=24)
    rings = [i.ring for i in insts]
    for ring in rings:
        rad = jacobson_radical(ring)
        q = quotient_by_ideal(ring, rad)
        assert jacobson_radical(q.ring).is_zero(), ring.name
    for a, b in zip(rings[::2], rings[1::2]):
        prod = direct_product([a, b])
        rad = jacobson_radical(prod)
        rad_a = jacobson_radical(a)
        rad_b = jacobson_radical(b)
        assert rad.size == rad_a.size * rad_b.size
        for x in rad_a.basis:
            assert rad.contains(tuple(x) + b.zero)
        for y in rad_b.basis:
            assert rad.contains(a.zero + tuple(y))


# -- the radical oracles against element scans ------------------------------------

def _qr_by_scan(ring, y) -> bool:
    """Oracle: y is left quasi-regular iff some z in R has z + y + z*y = 0."""
    return any(ring.add(ring.add(z, y), ring.mul(z, y)) == ring.zero
               for z in ring.elements())


def _jacobson_by_scan(ring, qr) -> set:
    """Oracle: x is in J(R) iff every element of its own R¹x is quasi-regular."""
    return {x for x in ring.elements()
            if all(qr[y] for y in generated_ideal(ring, [x], LEFT).elements())}


def _prime_by_scan(ring) -> set:
    """Oracle: x is in the prime radical iff its own two-sided ideal is nilpotent."""
    return {x for x in ring.elements()
            if nilpotency_index(ring, generated_ideal(ring, [x], TWOSIDED).sub) is not None}


def _radical_oracle_rings():
    rand, _ = random_instances(40, seed=20260808)
    return ([inst.ring for inst in named_instances()] + [inst.ring for inst in rand]
            + [matrix_ring(cyclic_ring(4), 2, name="m2z4"),
               group_ring(cyclic_ring(2), s3_cayley(), name="f2s3")])


def test_radical_oracles_match_element_scans():
    """One preimage solve per element and one verdict per principal ideal
    give the same quasi-regular elements and radicals as the full scans."""
    nonzero = 0
    for ring in _radical_oracle_rings():
        qr = {y: _qr_by_scan(ring, y) for y in ring.elements()}
        assert {y: is_quasi_regular(ring, y) for y in ring.elements()} == qr, ring.name
        rad = jacobson_radical(ring)
        assert rad.elements() == _jacobson_by_scan(ring, qr), ring.name
        assert prime_radical(ring).elements() == _prime_by_scan(ring), ring.name
        nonzero += not rad.is_zero()
    assert nonzero >= 10
