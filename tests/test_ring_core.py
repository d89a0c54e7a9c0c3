import itertools
import random

import pytest

from ringinv.catalog import named_instances, random_instances
from ringinv.groups import fixed_subgroup
from ringinv.radicals import enumerate_ideals, jacobson_radical
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    SIDES,
    TWOSIDED,
    AdditiveGroup,
    AdditiveMap,
    Ideal,
    IllDefined,
    NonAssociative,
    NotUnital,
    RingError,
    Subgroup,
    SubringView,
    WrongSide,
    _side_maps,
    cyclic_ring,
    direct_product,
    generated_ideal,
    group_ring,
    matrix_ring,
    quotient_by_ideal,
    unitalize,
    validate_ring,
    zero_mult_ring,
)

from test_lattices import min_pivot_hermite


def cayley_cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def brute_isomorphic(r1, r2):
    """Brute-force ring isomorphism test for tiny rings (order <= 16)."""
    if r1.order != r2.order or sorted(r1.cyclic_orders) != sorted(r2.cyclic_orders):
        return False
    elems2 = list(r2.elements())
    gens1 = r1.generators()
    for images in itertools.permutations(elems2, len(gens1)):
        def phi(x):
            out = r2.zero
            for c, im in zip(x, images):
                out = r2.add(out, r2.smul(c, im))
            return out
        seen = {phi(x) for x in r1.elements()}
        if len(seen) != r1.order:
            continue
        ok = all(
            phi(r1.mul(a, b)) == r2.mul(phi(a), phi(b))
            for a in r1.elements() for b in r1.elements()
        )
        if ok:
            return True
    return False


# -- validation ---------------------------------------------------------------

def test_z12_is_unital_cyclic():
    r = cyclic_ring(12)
    assert r.order == 12
    assert r.unit == (1,)
    assert r.mul((5,), (7,)) == (11,)


def test_identity_found_without_hint_at_any_order():
    # M2(Z/17) has order 83521; its identity is detected from the table alone
    m = matrix_ring(cyclic_ring(17), 2)
    r = validate_ring(m.cyclic_orders, m.mul_table)
    assert r.unit == (1, 0, 0, 1)
    assert validate_ring((2, 2), [[(0, 0)] * 2] * 2).unit is None


def test_nonassociative_table_rejected():
    # on Z/2 ⊕ Z/2: e1*e1 = e2, e1*e2 = e1, everything else 0 breaks
    # associativity on (e1,e1,e1): (e1e1)e1 = e2e1 = 0 vs e1(e1e1) = e1e2 = e1
    z = (0, 0)
    table = [[(0, 1), (1, 0)], [z, z]]
    with pytest.raises(NonAssociative):
        validate_ring((2, 2), table)


def test_ill_defined_table_rejected():
    # on Z/2 ⊕ Z/4: e1*e1 = e2 has additive order 4, not killed by d1 = 2
    z = (0, 0)
    table = [[(0, 1), z], [z, z]]
    with pytest.raises(IllDefined):
        validate_ring((2, 4), table)


def m2f2():
    return matrix_ring(cyclic_ring(2, name="f2"), 2, name="m2f2")


def test_m2f2_matches_matrix_model():
    """The structure-constant ring must agree with literal 2x2 matrices."""
    r = m2f2()
    assert r.order == 16
    assert r.unit == (1, 0, 0, 1)

    def to_mat(x):
        return ((x[0], x[1]), (x[2], x[3]))

    def mat_mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 2 for j in range(2))
            for i in range(2)
        )

    for x in r.elements():
        for y in r.elements():
            assert to_mat(r.mul(x, y)) == mat_mul(to_mat(x), to_mat(y))


def test_full_ring_axioms_exhaustive_small():
    rng = random.Random(0)
    rings = [
        cyclic_ring(12),
        two_z8(),
        zero_mult_ring((2, 2)),
        direct_product([cyclic_ring(3), cyclic_ring(3)]),
        group_ring(cyclic_ring(2), cayley_cyclic(2)),
    ]
    for r in rings:
        elems = list(r.elements())
        triples = (
            itertools.product(elems, repeat=3)
            if r.order <= 16
            else [(rng.choice(elems), rng.choice(elems), rng.choice(elems))
                  for _ in range(500)]
        )
        for x, y, z in triples:
            assert r.mul(r.mul(x, y), z) == r.mul(x, r.mul(y, z))
            assert r.mul(x, r.add(y, z)) == r.add(r.mul(x, y), r.mul(x, z))
            assert r.mul(r.add(x, y), z) == r.add(r.mul(x, z), r.mul(y, z))


# -- unitalize -----------------------------------------------------------------

def two_z8():
    # 2Z/8Z: additive Z/4 on generator g=2, with g*g = 4 = 2g
    return cyclic_ring(4, c=2, name="two_z8")


def test_unitalize_zero_mult_z2():
    r = zero_mult_ring((2,))
    ru = unitalize(r)
    assert ru.order == 4
    assert ru.unit == (1, 0)


def test_unitalize_two_z8():
    # additive exponent of 2Z/8Z is 4, so the unitalization is Z/4 ⊕ R
    r = two_z8()
    assert r.unit is None
    ru = unitalize(r)
    assert ru.order == 4 * 4
    assert ru.unit == (1, 0)
    # R sits inside as a two-sided ideal
    emb = [(0,) + b for b in [(1,)]]
    ideal = Ideal.from_basis(ru, TWOSIDED, emb)
    assert ideal.size == 4
    # quotient by the embedded copy is the cyclic ring Z/4
    q = quotient_by_ideal(ru, ideal)
    assert q.ring.order == 4
    assert brute_isomorphic(q.ring, cyclic_ring(4))


def test_unitalize_never_short_circuits():
    r = cyclic_ring(3)
    ru = unitalize(r)
    assert ru.order == 9
    assert ru.unit == (1, 0)


def test_unitalize_products_match_definition():
    r = two_z8()
    ru = unitalize(r)
    e = r.exponent
    for m, x in itertools.product(range(e), r.elements()):
        for n, y in itertools.product(range(e), r.elements()):
            lhs = ru.mul((m,) + x, (n,) + y)
            expected = ((m * n) % e,) + r.add(r.add(r.smul(m, y), r.smul(n, x)), r.mul(x, y))
            assert lhs == expected


# -- products, matrices, group rings ------------------------------------------

def test_direct_product():
    f3xf3 = direct_product([cyclic_ring(3), cyclic_ring(3)])
    assert f3xf3.order == 9
    assert f3xf3.unit == (1, 1)
    f2xz4 = direct_product([cyclic_ring(2), cyclic_ring(4)])
    assert f2xz4.order == 8
    assert f2xz4.unit == (1, 1)
    single = direct_product([cyclic_ring(5)])
    assert brute_isomorphic(single, cyclic_ring(5))


def test_matrix_ring_sizes():
    assert m2f2().order == 16
    m1 = matrix_ring(cyclic_ring(6), 1)
    assert brute_isomorphic(m1, cyclic_ring(6))
    assert matrix_ring(cyclic_ring(4), 2).order == 256
    with pytest.raises(NotUnital):
        matrix_ring(two_z8(), 2)


def test_zero_mult_ring():
    r = zero_mult_ring((2, 2))
    assert r.order == 4
    for x in r.elements():
        for y in r.elements():
            assert r.mul(x, y) == r.zero
    assert r.unit is None


def test_group_ring_f2c2():
    r = group_ring(cyclic_ring(2), cayley_cyclic(2), name="f2c2")
    assert r.order == 4
    assert r.is_unital
    # (1+g)^2 = 1 + 2g + g^2 = 2 + 2g = 0 in characteristic 2
    x = (1, 1)
    assert r.mul(x, x) == r.zero


def test_group_ring_f3c2_and_trivial():
    r = group_ring(cyclic_ring(3), cayley_cyclic(2))
    assert r.order == 9
    assert r.is_unital
    triv = group_ring(cyclic_ring(5), cayley_cyclic(1))
    assert brute_isomorphic(triv, cyclic_ring(5))


# -- ideals ---------------------------------------------------------------------

def test_generated_ideal_z12():
    r = cyclic_ring(12)
    ideal = generated_ideal(r, [(6,)], TWOSIDED)
    assert ideal.elements() == frozenset({(0,), (6,)})


def test_generated_ideal_empty():
    r = cyclic_ring(12)
    ideal = generated_ideal(r, [], TWOSIDED)
    assert ideal.is_zero()


def test_generated_ideal_simple_ring():
    r = m2f2()
    e11 = (1, 0, 0, 0)
    ideal = generated_ideal(r, [e11], TWOSIDED)
    assert ideal.size == 16


def test_generated_ideal_idempotent():
    r = cyclic_ring(12)
    for gens in ([(6,)], [(4,)], [(2,), (3,)]):
        i1 = generated_ideal(r, gens, LEFT)
        i2 = generated_ideal(r, i1.basis, LEFT)
        assert i1.sub == i2.sub


def test_generated_ideal_contains_generators_nonunital():
    r = two_z8()
    for side in (LEFT, RIGHT, TWOSIDED):
        ideal = generated_ideal(r, [(1,)], side)
        assert ideal.contains((1,))


def test_quotient_z12_by_6():
    r = cyclic_ring(12)
    ideal = generated_ideal(r, [(6,)], TWOSIDED)
    q = quotient_by_ideal(r, ideal)
    assert q.ring.order == 6
    assert brute_isomorphic(q.ring, cyclic_ring(6))
    # projection respects both operations everywhere
    for x in r.elements():
        for y in r.elements():
            assert q.to_image(r.mul(x, y)) == q.ring.mul(q.to_image(x), q.to_image(y))
            assert q.to_image(r.add(x, y)) == q.ring.add(q.to_image(x), q.to_image(y))


def test_quotient_by_zero_and_whole():
    r = direct_product([cyclic_ring(2), cyclic_ring(2)])
    zero = generated_ideal(r, [], TWOSIDED)
    q = quotient_by_ideal(r, zero)
    assert q.ring.order == r.order
    whole = generated_ideal(r, list(r.generators()), TWOSIDED)
    q2 = quotient_by_ideal(r, whole)
    assert q2.ring.order == 1
    assert q2.ring.unit == ()


def test_own_coordinates_share_the_parent():
    """R/0 and R as its own subring are R itself when R's cyclic orders form
    its Smith coordinates; both maps are then the identity."""
    z2xz4 = direct_product([cyclic_ring(2), cyclic_ring(4)])
    for r in (z2xz4, m2f2(), matrix_ring(cyclic_ring(3), 2)):
        q = quotient_by_ideal(r, generated_ideal(r, [], TWOSIDED))
        whole = SubringView.from_elements(r, r.generators()).image()
        for image in (q, whole):
            assert image.ring is r
            for x in r.elements():
                assert image.to_image(x) == x and image.from_image(x) == x


def test_semisimple_ring_mod_its_radical_is_itself():
    for r in (matrix_ring(cyclic_ring(3), 2),
              direct_product([cyclic_ring(3), cyclic_ring(3)])):
        rad = jacobson_radical(r)
        assert rad.is_zero()
        assert quotient_by_ideal(r, rad).ring is r


def test_other_smith_coordinates_keep_a_copy():
    """F2×F3 on orders (2, 3) has Smith coordinates (6,): R/0 is a separate,
    validated ring with honest maps."""
    r = direct_product([cyclic_ring(2), cyclic_ring(3)])
    q = quotient_by_ideal(r, generated_ideal(r, [], TWOSIDED))
    assert q.ring is not r
    assert q.ring.cyclic_orders == (6,)
    for x in r.elements():
        assert q.from_image(q.to_image(x)) == x
        for y in r.elements():
            assert q.to_image(r.mul(x, y)) == q.ring.mul(q.to_image(x), q.to_image(y))


@pytest.mark.parametrize("copies", [7, 9])
def test_quotient_rejects_non_ideal_at_any_order(copies):
    # span{e12} is not a two-sided ideal of M2(F2) x F2^copies (orders 2048
    # and 8192); wrapped unverified, it must still not yield a quotient
    f2 = cyclic_ring(2, name="f2")
    r = direct_product([m2f2()] + [f2] * copies)
    sub = Subgroup.from_generators(r.additive, [r.generator(1)])
    with pytest.raises(RingError):
        quotient_by_ideal(r, Ideal(r, TWOSIDED, sub))


def test_quotient_needs_twosided():
    r = m2f2()
    left_only = generated_ideal(r, [(1, 0, 0, 0)], LEFT)
    with pytest.raises(WrongSide):
        quotient_by_ideal(r, left_only)


def test_ideal_from_basis_verifies():
    # span{e12+e21} in M2(F2) is additive but not closed under left products
    with pytest.raises(RingError):
        Ideal.from_basis(m2f2(), LEFT, [(0, 1, 1, 0)])


# -- subgroup machinery ---------------------------------------------------------

def test_subgroup_canonical_equality():
    g = AdditiveGroup((4, 4))
    s1 = Subgroup.from_generators(g, [(2, 0), (0, 2)])
    s2 = Subgroup.from_generators(g, [(2, 2), (0, 2)])
    assert s1 == s2
    assert s1.size == 4
    s3 = Subgroup.from_generators(g, [(2, 2)])
    assert s3 != s1
    assert s3.size == 2


def test_subgroup_membership_and_elements():
    g = AdditiveGroup((8,))
    s = Subgroup.from_generators(g, [(2,)])
    assert s.size == 4
    assert s.elements() == frozenset({(0,), (2,), (4,), (6,)})
    assert s.contains((6,))
    assert not s.contains((1,))


def test_subgroup_join_intersect():
    g = AdditiveGroup((2, 2, 2))
    a = Subgroup.from_generators(g, [(1, 0, 0)])
    b = Subgroup.from_generators(g, [(0, 1, 0)])
    assert a.join(b).size == 4
    assert a.intersect(b).is_zero()


def _rebuilt(group, gens):
    """Subgroup keyed by the oracle Hermite form, built from scratch."""
    rows = [list(g) for g in gens] + [list(r) for r in group.relations]
    return Subgroup(group, min_pivot_hermite(rows, group.rank))


def rebuild_closure(group, gens, maps):
    """Least subgroup containing `gens` that every map keeps inside, by the
    fixed-point loop that tests membership and rebuilds the key from scratch:
    the oracle for every one-span closure."""
    sub = _rebuilt(group, gens)
    while True:
        images = [f(b) for b in sub.basis for f in maps]
        new = [y for y in images if not sub.contains(y)]
        if not new:
            return sub
        sub = _rebuilt(group, sub.basis + tuple(new))


def oracle_instances():
    """The named catalog plus a seeded random sample."""
    rand, _ = random_instances(40, seed=20260808)
    return list(named_instances()) + rand


def generator_sets(inst):
    """Single elements, G-orbits and pairs of elements of the instance."""
    elems = sorted(inst.ring.elements())
    yield from ([x] for x in elems)
    yield from (sorted({g.apply(x) for g in inst.group.elements}) for x in elems[1::3])
    yield from ([x, y] for x, y in zip(elems[1::5], elems[len(elems) // 2::3]))


def test_generated_ideal_matches_rebuild_loop():
    """The one-span generated ideal equals the fixed-point closure under
    multiplication by the generators, on every side."""
    for inst in oracle_instances():
        ring = inst.ring
        for side in SIDES:
            maps = _side_maps(ring, side)
            for gens in generator_sets(inst):
                assert (generated_ideal(ring, gens, side).key
                        == rebuild_closure(ring.additive, gens, maps).key), (
                    ring.name, side, gens)


def test_subgroup_extend_returns_self_inside():
    g = AdditiveGroup((4, 6))
    s = Subgroup.from_generators(g, [(2, 3)])
    assert s.extend([(0, 0), (2, 3), (4, 6), (-2, 3)]) is s
    assert s.extend([(1, 0)]) == Subgroup.from_generators(g, [(2, 3), (1, 0)])
    assert Subgroup.zero(g).join(s) is s
    assert s.join(Subgroup.zero(g)) is s


def test_intersect_short_circuits_match_zassenhaus():
    """Whole, zero and nested operands from the named catalog's ideal
    lattices meet as the Zassenhaus kernel says."""
    nested = 0
    for inst in named_instances():
        ring = inst.ring
        whole = Subgroup.from_generators(ring.additive, ring.generators())
        zero = Subgroup.zero(ring.additive)
        for side in (LEFT, RIGHT):
            subs = [i.sub for i in enumerate_ideals(ring, side)[0]] + [whole, zero]
            for a in subs:
                for b in subs:
                    zassenhaus = AdditiveMap(ring.additive, a.key, b.key, sources=a.key).kernel
                    meet = a.intersect(b)
                    assert meet == zassenhaus, ring.name
                    if a.extend(b.basis) is a:
                        assert meet is b
                        nested += 1
                    elif b.extend(a.basis) is b:
                        assert meet is a
    assert nested > 100


def test_subgroup_transversal_one_element_per_coset():
    """For below ⊆ A in the named catalog's ideal lattices, A.transversal(below)
    yields |A|/|below| elements of A, zero first, in distinct cosets."""
    pairs = 0
    for inst in named_instances():
        ring = inst.ring
        for side in (LEFT, RIGHT):
            subs = [i.sub for i in enumerate_ideals(ring, side)[0]]
            for below in subs:
                for a in subs:
                    if not all(a.contains(x) for x in below.basis):
                        continue
                    reps = list(a.transversal(below))
                    assert len(reps) == a.size // below.size, ring.name
                    assert reps[0] == ring.zero
                    assert all(a.contains(x) for x in reps)
                    cosets = {min(ring.add(x, b) for b in below.elements()) for x in reps}
                    assert len(cosets) == len(reps), ring.name
                    pairs += 1
    assert pairs > 100


def _assert_coordinate_maps(ring, img, basis):
    """`to_image` is a left inverse of `from_image` on the image generators
    and additive on pairs from `basis`."""
    for g in img.ring.generators():
        assert img.to_image(img.from_image(g)) == g
    for x in basis:
        for y in basis:
            assert img.to_image(ring.add(x, y)) == img.ring.add(
                img.to_image(x), img.to_image(y))


def test_subring_view_image_roundtrip():
    r = direct_product([cyclic_ring(3), cyclic_ring(3)])
    diag = SubringView.from_elements(r, [(1, 1)])
    assert diag.size == 3
    img = diag.image()
    assert img.ring.order == 3
    assert img.ring.is_unital
    for x in diag.elements():
        assert img.from_image(img.to_image(x)) == x
    # image multiplication agrees with the parent
    for x in diag.elements():
        for y in diag.elements():
            assert img.to_image(r.mul(x, y)) == img.ring.mul(
                img.to_image(x), img.to_image(y))
    # an element outside the subring has no coordinates
    with pytest.raises(RingError):
        SubringView.from_elements(cyclic_ring(8), [(2,)]).image().to_image((1,))
    # every fixed subring and radical quotient of the catalog
    rand, _ = random_instances(40, 20260808)
    for inst in named_instances() + rand:
        ring = inst.ring
        fixed = SubringView(ring, fixed_subgroup(ring, inst.group.elements))
        img = fixed.image()
        for x in fixed.basis:
            assert img.from_image(img.to_image(x)) == x
        _assert_coordinate_maps(ring, img, fixed.basis)
        outside = next((g for g in ring.generators() if not fixed.contains(g)), None)
        assert (outside is None) == (fixed.size == ring.order)
        if outside is not None:
            with pytest.raises(RingError):
                img.to_image(outside)
        quot = quotient_by_ideal(ring, jacobson_radical(ring))
        _assert_coordinate_maps(ring, quot, ring.generators())


def test_views_of_one_subgroup_share_one_image_ring():
    """The image is memoized on the parent by subgroup key: a second view of
    the same subgroup gets the first view's ring, and its caches, whatever
    name it asks for."""
    r = matrix_ring(cyclic_ring(3), 2)
    diag = [(1, 0, 0, 0), (0, 0, 0, 1)]
    first = SubringView.from_elements(r, diag).image(name="first")
    second = SubringView.from_elements(r, list(reversed(diag))).image(name="second")
    assert second is first and first.ring.name == "first"
    other = SubringView.from_elements(r, [(1, 0, 0, 1)]).image()
    assert other.ring is not first.ring


def test_subring_view_rejects_non_closed():
    r = m2f2()
    with pytest.raises(RingError):
        SubringView.from_elements(r, [(0, 1, 1, 0)])


def test_subring_of_nonsplit_additive():
    # subgroup {0,2,4,6} of Z/8 with c=1: the subring 2Z/8 inside Z/8
    r = cyclic_ring(8)
    s = SubringView.from_elements(r, [(2,)])
    img = s.image()
    assert img.ring.order == 4
    assert brute_isomorphic(img.ring, two_z8())


def test_zero_subring_image():
    r = cyclic_ring(4)
    s = SubringView.from_elements(r, [])
    img = s.image()
    assert img.ring.order == 1
    assert img.to_image((0,)) == ()
    assert img.from_image(()) == (0,)
