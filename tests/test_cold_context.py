"""What a cold context computes again, done with less work.

Both radicals walk the principal left ideals R¹x of the primary components
of R that are not cyclic, one coset of the part found so far at a time, and
decide a cyclic component R_p by one test of R_p; they differ only in the
test each ideal gets: nilpotency for the prime radical (x ∈ N(R) iff R¹x
is nilpotent) and quasi-regularity of every member, by circle powers, for
the Jacobson radical.  A given identity is checked on the generators
rather than solved for, and torsion ideals are sums of primary components.
Each is compared here with the whole-ring computation it replaced
(`tests/oracles.py`), on the named catalog, `random_instances(100, s)` for
two seeds, the ladder rings and a few mixed-order rings; the left-ideal
lemma is checked element by element on noncommutative rings where R¹x and
R¹xR¹ differ.
"""

import pytest

from ringinv import radicals
from ringinv.catalog import named_instances, random_instances
from ringinv.invariants import GActionContext, torsion_ideal
from ringinv.radicals import (
    is_quasi_regular,
    jacobson_radical,
    prime_radical,
    principal_ideal,
    radical_profile,
)
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    TWOSIDED,
    Ideal,
    NotUnital,
    Subgroup,
    cyclic_ring,
    direct_product,
    factorize,
    generated_ideal,
    group_ring,
    matrix_ring,
    validate_ring,
    zero_mult_ring,
)

from oracles import (
    generator_torsion_ideal,
    solved_quasi_regular,
    whole_ring_jacobson_radical,
    whole_ring_prime_radical,
)
from test_cross_checks import s3_cayley
from test_ladder import ladder_instances

SEEDS = (20260808, 20260909)


def mixed_rings():
    """Z/4 × Z/7, F2[S3] × F3, and a ring without identity whose additive
    exponent has three primes: Z/4 with e·e = 2e, times F3, times the zero
    ring on Z/5."""
    return [
        direct_product([cyclic_ring(4), cyclic_ring(7)], name="z4xz7"),
        direct_product([group_ring(cyclic_ring(2), s3_cayley()), cyclic_ring(3)],
                       name="f2s3xf3"),
        direct_product([cyclic_ring(4, c=2), cyclic_ring(3), zero_mult_ring((5,))],
                       name="mixed_nonunital"),
    ]


@pytest.fixture(scope="module")
def rings():
    """Every ring of the catalog, the two random sets and the ladder, with
    its fixed ring, then the mixed rings."""
    insts = named_instances()
    for seed in SEEDS:
        insts.extend(random_instances(100, seed)[0])
    out = []
    for inst in insts + ladder_instances():
        out.append(inst.ring)
        out.append(GActionContext(inst.ring, inst.group).fixed_image().ring)
    return out + mixed_rings()


def fresh(ring):
    """The same table as a new ring object, so no cache is shared."""
    return validate_ring(ring.cyclic_orders, ring.mul_table, name=ring.name)


# -- primary components -----------------------------------------------------------

def test_primary_components_split_the_ring(rings):
    """R_p is killed by the p-part of the exponent, R_p·R_q = 0 for p ≠ q,
    and R is the direct sum of the components."""
    for ring in rings:
        comps = ring.primary_components()
        assert [p for p, _ in comps] == sorted(factorize(ring.exponent)), ring.name
        total = Subgroup.zero(ring.additive)
        for p, comp in comps:
            p_part = p ** factorize(ring.exponent)[p]
            assert not any(any(ring.smul(p_part, b)) for b in comp.basis), ring.name
            for q, other in comps:
                if q != p:
                    assert all(ring.mul(a, b) == ring.zero
                               for a in comp.basis for b in other.basis), ring.name
            assert total.join(comp).size == total.size * comp.size, ring.name
            total = total.join(comp)
        assert total.size == ring.order, ring.name


# -- the two radicals ---------------------------------------------------------------

def test_radicals_match_the_whole_ring_walks(rings):
    for ring in rings:
        ring = fresh(ring)
        assert prime_radical(ring).sub == whole_ring_prime_radical(ring), ring.name
        assert jacobson_radical(ring).sub == whole_ring_jacobson_radical(ring), ring.name
        radical_profile(ring)


def test_mixed_rings_have_the_expected_radicals():
    z4xz7, f2s3xf3, mixed = (fresh(r) for r in mixed_rings())
    # J(Z/4 × Z/7) = 2Z/4 × 0
    assert sorted(jacobson_radical(z4xz7).elements()) == [(0, 0), (2, 0)]
    # J(F2[S3]) has order 2 (the sum of the group elements), and F3 adds none
    assert jacobson_radical(f2s3xf3).size == 2
    # on 2Z/4-with-e·e=2e the whole of Z/4 is nilpotent: e^2 = 2e, e^3 = 0
    assert jacobson_radical(mixed).size == 4 * 5
    assert prime_radical(mixed).sub == jacobson_radical(mixed).sub


def dual_numbers_times_z4():
    """F3[ε] × Z/4 with ε² = 0, on the basis 1, ε, e: its 3-component
    F3[ε] × 0 is not cyclic and has the radical F3·ε, and its 2-component
    0 × Z/4 is cyclic."""
    f3e = validate_ring((3, 3), [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], name="f3e")
    return direct_product([f3e, cyclic_ring(4)], name="f3e_x_z4")


def _asking(monkeypatch):
    """The elements `radicals.principal_ideal` is asked for, in order."""
    asked = []
    real = radicals.principal_ideal

    def counting(r, x, side):
        asked.append(x)
        return real(r, x, side)
    monkeypatch.setattr(radicals, "principal_ideal", counting)
    return asked


def test_walks_skip_the_cosets_of_the_part_found(monkeypatch):
    """F3[ε] has 9 elements, walked in the order 0, ε, 2ε, 1, ….  ε passes
    and F3·ε joins the radical; the cosets of F3·ε left are those of 1 and
    2, both asked and both failing, so the other four elements of F3[ε],
    1 + ε and the rest, are never asked.  The cyclic 0 × Z/4 asks
    nothing."""
    ring = fresh(dual_numbers_times_z4())
    asked = _asking(monkeypatch)
    assert sorted(jacobson_radical(ring).elements()) == sorted(
        (0, k, 2 * m) for k in range(3) for m in range(2))
    assert asked == [(0, 1, 0), (1, 0, 0), (2, 0, 0)]


@pytest.mark.parametrize("ring", [mixed_rings()[0], dual_numbers_times_z4(),
                                  cyclic_ring(27), cyclic_ring(8, c=2),
                                  direct_product([cyclic_ring(8), cyclic_ring(9)])],
                         ids=lambda ring: ring.name)
def test_cyclic_components_ask_no_principal_ideal(ring, monkeypatch):
    """A cyclic primary component is decided by one test of R_p for each
    radical and gives its chain to the lattices: Z/4 × Z/7, Z/27, Z/8 with
    e·e = 2e and Z/8 × Z/9 ask `principal_ideal` nothing, and F3[ε] × Z/4
    asks only for elements of its non-cyclic F3[ε]; only that ring makes a
    join closure."""
    ring = fresh(ring)
    asked, joins = _asking(monkeypatch), []
    real = radicals.join_closure

    def joining(*args, **kwargs):
        joins.append(ring.name)
        return real(*args, **kwargs)
    monkeypatch.setattr(radicals, "join_closure", joining)
    radical_profile(ring)
    for side in (LEFT, RIGHT, TWOSIDED):
        for ideal in radicals.enumerate_ideals(ring, side)[0]:
            radicals.quotient_length(ring, side, ideal.sub)
    cyclic = [c for _, c in ring.primary_components() if radicals._is_cyclic(c)]
    assert cyclic
    assert not any(c.contains(x) and any(x) for x in asked for c in cyclic)
    assert bool(asked) == bool(joins) == (ring.name == "f3e_x_z4")


def triangular_ring(n):
    """T2(Z/n), the upper triangular 2 × 2 matrices over Z/n, on the basis
    e11, e12, e22."""
    e11, e12, e22, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    return validate_ring((n, n, n), [[e11, e12, zero], [zero, zero, e12], [zero, zero, e22]],
                         name=f"t2_z{n}")


def noncommutative_rings():
    """The noncommutative rings of the catalog, T2(Z/n) for n = 2, 3, 4, 9,
    M2(Z/4), M2(Z/9), F2[S3], F3[S3] and Z/4[S3]."""
    s3 = s3_cayley()
    return ([inst.ring for inst in named_instances() if not inst.ring.is_commutative]
            + [triangular_ring(n) for n in (2, 3, 4, 9)]
            + [matrix_ring(cyclic_ring(n), 2, name=f"m2_z{n}") for n in (4, 9)]
            + [group_ring(cyclic_ring(n), s3, name=f"z{n}_s3") for n in (2, 3, 4)])


def test_prime_radical_is_the_sum_of_nilpotent_left_ideals(monkeypatch):
    """x ∈ N(R) iff R¹x is nilpotent: element by element, R¹x is nilpotent
    iff R¹xR¹ is; the prime radical is the whole-ring walk over R¹xR¹; and
    the radicals close left ideals only, the Jacobson oracle none that the
    prime oracle has not closed already."""
    rings = [fresh(ring) for ring in noncommutative_rings()]
    assert all(not ring.is_commutative for ring in rings)
    for ring in rings:
        nilpotent, differ = {}, False
        for x in ring.elements():
            left = principal_ideal(ring, x, LEFT).sub
            two = generated_ideal(ring, [x], TWOSIDED).sub
            differ = differ or left != two
            for sub in (left, two):
                if sub.key not in nilpotent:
                    nilpotent[sub.key] = ring.power_chain(sub)[0] is not None
            assert nilpotent[left.key] == nilpotent[two.key], (ring.name, x)
        assert differ, ring.name

    closed = []
    real = radicals.generated_ideal

    def counting(ring, gens, side):
        closed.append(side)
        return real(ring, gens, side)
    monkeypatch.setattr(radicals, "generated_ideal", counting)
    for ring in rings:
        ring = fresh(ring)
        nil = prime_radical(ring)
        before = len(closed)
        radical_profile(ring)
        assert len(closed) == before, ring.name
        assert nil.sub == whole_ring_prime_radical(ring), ring.name
    assert set(closed) == {LEFT}


# -- quasi-inverses ------------------------------------------------------------------

def test_units_and_other_elements_go_to_the_solve():
    f3 = cyclic_ring(3)
    # z = 1 solves z + 1 + z·1 = 0 in F3
    assert is_quasi_regular(f3, (1,))
    # −1: z − 1 − z = −1 for every z
    assert not is_quasi_regular(f3, (2,))
    # nilpotent elements of Z/8: 2∘2 = 2 + 2 + 4 = 0 and 4∘4 = 4 + 4 + 16 = 0
    assert is_quasi_regular(cyclic_ring(8), (2,))
    assert is_quasi_regular(cyclic_ring(8), (4,))


def test_quasi_regularity_matches_the_solve(rings):
    for ring in rings:
        ring = fresh(ring)
        for y in ring.elements():
            assert is_quasi_regular(ring, y) == solved_quasi_regular(ring, y), (ring.name, y)


# -- the verified identity -----------------------------------------------------------

def test_a_correct_hint_gives_the_hintless_ring(rings):
    for ring in rings:
        bare = validate_ring(ring.cyclic_orders, ring.mul_table, name=ring.name)
        if bare.unit is None:
            continue
        hinted = validate_ring(ring.cyclic_orders, ring.mul_table,
                               unit_hint=bare.unit, name=ring.name)
        assert hinted.table_key() == bare.table_key(), ring.name


def test_a_wrong_hint_raises_not_unital():
    z6 = cyclic_ring(6)
    with pytest.raises(NotUnital, match=r"^claimed identity \(5,\) is not one$"):
        validate_ring(z6.cyclic_orders, z6.mul_table, unit_hint=(5,))
    # the hint is reduced before it is checked or echoed
    with pytest.raises(NotUnital, match=r"^claimed identity \(2,\) is not one$"):
        validate_ring(z6.cyclic_orders, z6.mul_table, unit_hint=(8,))
    assert validate_ring(z6.cyclic_orders, z6.mul_table, unit_hint=(7,)).unit == (1,)


def test_a_hint_on_a_ring_without_identity_raises_not_unital():
    for ring in (cyclic_ring(4, c=2), zero_mult_ring((2, 3)), mixed_rings()[2]):
        assert ring.unit is None
        hint = (1,) * ring.rank
        with pytest.raises(NotUnital) as err:
            validate_ring(ring.cyclic_orders, ring.mul_table, unit_hint=hint)
        assert str(err.value) == f"claimed identity {hint} is not one"


# -- torsion ideals ------------------------------------------------------------------

def test_torsion_ideals_are_component_sums(rings):
    for ring in rings:
        for n in range(1, 13):
            tor = torsion_ideal(ring, n)
            assert tor.sub == generator_torsion_ideal(ring, n), (ring.name, n)
            assert tor.verify_closure()


def test_torsion_ideal_is_memoized_and_verified_once(monkeypatch):
    ring = fresh(mixed_rings()[1])
    verified = []
    real = Ideal.verify_closure

    def counting(ideal):
        verified.append(ideal.key)
        return real(ideal)
    monkeypatch.setattr(Ideal, "verify_closure", counting)
    first = torsion_ideal(ring, 6)
    assert torsion_ideal(ring, 6) is first
    assert len(verified) == 1
    with pytest.raises(ValueError):
        torsion_ideal(ring, 0)

