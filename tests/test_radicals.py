import signal
from functools import partial
from math import gcd

import pytest

from ringinv.groups import fixed_subgroup
from ringinv.radicals import (
    SizeCap,
    enumerate_ideals,
    is_quasi_regular,
    is_semisimple_artinian,
    jacobson_radical,
    minimal_ideals,
    module_length,
    nilpotency_index,
    prime_radical,
    principal_ideal,
    quotient_length,
    radical_profile,
    regular_elements_quotient,
    uniform_dimension,
)
from ringinv.caps import Caps
from ringinv.invariants import subgroup_power_nilpotency
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    SIDES,
    RingError,
    Subgroup,
    SubringView,
    cyclic_ring,
    direct_product,
    generated_ideal,
    group_ring,
    matrix_ring,
    unitalize,
    zero_mult_ring,
)

from oracles import ring_as_module
from test_ring_core import generator_sets, oracle_instances, rebuild_closure


def two_z8():
    return cyclic_ring(4, c=2, name="two_z8")


def m2f2():
    return matrix_ring(cyclic_ring(2), 2, name="m2f2")


def f3xf3():
    return direct_product([cyclic_ring(3), cyclic_ring(3)], name="f3xf3")


def f2c2():
    cayley = [[0, 1], [1, 0]]
    return group_ring(cyclic_ring(2), cayley, name="f2c2")


# -- nilpotency ---------------------------------------------------------------

def test_nilpotency_zero_mult():
    r = zero_mult_ring((2, 2))
    assert nilpotency_index(r) == 2


def test_nilpotency_two_z8():
    # R^2 = {0,4}, R^3 = 0 inside 2Z/8Z
    assert nilpotency_index(two_z8()) == 3


def test_nilpotency_unital_ring_none():
    assert nilpotency_index(cyclic_ring(3)) is None


def _raise_timeout(signum, frame):
    raise TimeoutError("nilpotency_index did not return within 10 s")


def test_nilpotency_of_cycling_powers_is_none():
    # s = e12 + e21 has s² = 1, so the powers of span{s} alternate between
    # span{s} and span{1} and never repeat consecutively
    r = m2f2()
    sub = Subgroup.from_generators(r.additive, [(0, 1, 1, 0)])
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(10)
    try:
        assert nilpotency_index(r, sub) is None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_nilpotency_index_matches_capped_power_chain(named_catalog):
    for inst in named_catalog:
        ring = inst.ring
        for side in SIDES:
            ideals, _ = enumerate_ideals(ring, side)
            for ideal in ideals:
                assert nilpotency_index(ring, ideal.sub) == subgroup_power_nilpotency(
                    ring, ideal.sub, 64)[0], (inst.name, side, ideal)


# -- radicals -----------------------------------------------------------------

def test_prime_radical_z12():
    r = cyclic_ring(12)
    assert prime_radical(r).elements() == frozenset({(0,), (6,)})


def test_prime_radical_simple_ring():
    assert prime_radical(m2f2()).is_zero()


def test_prime_radical_zero_mult_whole():
    r = zero_mult_ring((2, 2))
    assert prime_radical(r).size == r.order


def test_jacobson_z12_agrees():
    r = cyclic_ring(12)
    assert jacobson_radical(r).elements() == frozenset({(0,), (6,)})


def test_jacobson_f2c2():
    r = f2c2()
    rad = jacobson_radical(r)
    # the square-zero span of 1+g
    assert rad.elements() == frozenset({(0, 0), (1, 1)})


def test_jacobson_semisimple_zero():
    assert jacobson_radical(f3xf3()).is_zero()


def test_radical_profile_cross_check():
    for r in (cyclic_ring(12), two_z8(), m2f2(), f2c2(), f3xf3()):
        profile = radical_profile(r)
        assert profile.prime_radical.sub == profile.jacobson_radical.sub
        assert profile.semiprime == profile.prime_radical.is_zero()
        assert profile.semisimple_artinian == profile.jacobson_radical.is_zero()


def test_radical_quotient_is_semiprime():
    from ringinv.ring_core import quotient_by_ideal

    for r in (cyclic_ring(12), two_z8(), f2c2()):
        nil = prime_radical(r)
        q = quotient_by_ideal(r, nil)
        assert prime_radical(q.ring).is_zero()


def test_quasi_regular_examples():
    r = cyclic_ring(12)
    assert is_quasi_regular(r, (6,))   # z = 6: 6+6+36 = 48 = 0 mod 12
    assert not is_quasi_regular(r, (11,))  # 11 = -1: z - 1 - z = -1 != 0


def test_semiprime_flags():
    assert prime_radical(m2f2()).is_zero() and is_semisimple_artinian(m2f2())
    assert not prime_radical(two_z8()).is_zero() and not is_semisimple_artinian(two_z8())
    assert not prime_radical(f2c2()).is_zero() and not is_semisimple_artinian(f2c2())


# -- ideal lattices and udim -----------------------------------------------------

def test_enumerate_ideals_z12():
    r = cyclic_ring(12)
    ideals, exhaustive = enumerate_ideals(r, LEFT)
    assert exhaustive
    # ideals of Z/12 correspond to divisors of 12
    assert sorted(i.size for i in ideals) == [1, 2, 3, 4, 6, 12]


def test_enumerate_ideals_count_cap():
    r = zero_mult_ring((2, 2, 2))
    ideals, exhaustive = enumerate_ideals(r, LEFT, Caps(ideal_count=5))
    assert not exhaustive
    assert len(ideals) >= 5


def test_minimal_ideals_m2f2():
    r = m2f2()
    atoms = minimal_ideals(r, LEFT)
    assert len(atoms) == 3  # one per line of the 2-dim column space
    assert all(a.size == 4 for a in atoms)


def test_udim_f3xf3():
    cert = uniform_dimension(f3xf3(), LEFT)
    assert cert.value == 2
    assert cert.maximality == "exhaustive"
    sizes = sorted(i.size for i in cert.witness)
    assert sizes == [3, 3]


def test_udim_m2f2_left():
    cert = uniform_dimension(m2f2(), LEFT)
    assert cert.value == 2


def test_udim_field_is_one():
    for q in (2, 3, 5, 7):
        assert uniform_dimension(cyclic_ring(q), LEFT).value == 1


def test_udim_diag_subring():
    r = f3xf3()
    diag = SubringView.from_elements(r, [(1, 1)])
    img = diag.image()
    assert uniform_dimension(img.ring, LEFT).value == 1


def test_udim_cache_answers_for_the_caps_given():
    """The greedy branch reads sample_count, so a cached result for one
    sample count must not answer for another."""
    few, many = Caps(udim_exhaustive_order=8, sample_count=1), Caps(udim_exhaustive_order=8)
    fresh = uniform_dimension(matrix_ring(cyclic_ring(3), 2), LEFT, many).value
    r = matrix_ring(cyclic_ring(3), 2)
    assert uniform_dimension(r, LEFT, few).value == 1
    assert uniform_dimension(r, LEFT, many).value == fresh == 2


def test_udim_witness_reverified():
    cert = uniform_dimension(m2f2(), RIGHT)
    for ideal in cert.witness:
        assert not ideal.is_zero()
    assert cert.value == len(cert.witness)


# -- regular elements ----------------------------------------------------------------

def test_regular_elements_z12():
    out = regular_elements_quotient(cyclic_ring(12))
    assert out.regular == ((1,), (5,), (7,), (11,))
    assert out.units == out.regular
    assert out.quotient_status == "equals-ring"
    assert out.goldie


def test_regular_elements_m2f2_gl2():
    out = regular_elements_quotient(m2f2())
    assert len(out.regular) == 6  # |GL_2(F_2)|
    assert out.regular_are_units


def test_regular_elements_zero_mult_degenerate():
    out = regular_elements_quotient(zero_mult_ring((2, 2)))
    assert out.regular == ()
    assert out.quotient_status == "degenerate-undefined"


# -- modules and length --------------------------------------------------------------------

def test_module_length_zero():
    r = cyclic_ring(4)
    assert quotient_length(r, LEFT, Subgroup.from_generators(r.additive, r.generators())) == 0


def test_module_length_f3xf3_over_itself():
    m = ring_as_module(f3xf3(), LEFT)
    assert module_length(m) == 2


def test_module_length_z4_over_itself():
    m = ring_as_module(cyclic_ring(4), LEFT)
    assert module_length(m) == 2


def test_module_length_additive_on_series():
    # splitting off one atom drops the length by exactly one
    r = f3xf3()
    m = ring_as_module(r, LEFT)
    atom = m.minimal_submodules()[0]
    assert module_length(m) == quotient_length(r, LEFT, atom) + 1


def test_module_quotient_rejects_non_submodule():
    # span{e12} is additive but not a left submodule of M2(F2) over itself
    r = m2f2()
    with pytest.raises(RingError):
        quotient_length(r, LEFT, Subgroup.from_generators(r.additive, [(0, 1, 0, 0)]))


def test_module_length_size_cap():
    m = ring_as_module(cyclic_ring(8), LEFT)
    with pytest.raises(SizeCap):
        module_length(m, Caps(module_order=4))


def test_module_length_choice_independent():
    """Splitting off any atom drops the composition length by exactly one, so
    the length does not depend on which atom a chain passes through."""
    for ring in (f3xf3(), cyclic_ring(4), m2f2(), f2c2(), cyclic_ring(12),
                 two_z8(), zero_mult_ring((4, 2)), unitalize(two_z8()),
                 direct_product([cyclic_ring(4), cyclic_ring(2)])):
        for side in (LEFT, RIGHT):
            m = ring_as_module(ring, side)
            length = module_length(m)
            assert quotient_length(ring, side, Subgroup.zero(ring.additive)) == length
            for atom in m.minimal_submodules():
                assert 1 + quotient_length(ring, side, atom) == length, (ring.name, side)


def test_module_over_subring():
    r = f3xf3()
    diag = SubringView.from_elements(r, [(1, 1)])
    img = diag.image()
    m = ring_as_module(r, LEFT, scalars=img.ring, embed=img.from_image)
    # as a module over the diagonal, the ring splits into two lines
    assert module_length(m) == 2


def _additive_order(ring, x):
    o = 1
    while any(ring.smul(o, x)):
        o += 1
    return o


def test_principal_ideal_is_shared_by_cyclic_generators():
    """One closure serves every generator k·x of <x>, and no other element:
    on Z/4, (2) is not (1)."""
    rings = [cyclic_ring(4)] + [inst.ring for inst in oracle_instances()]
    for ring in rings:
        for side in SIDES:
            for x in sorted(ring.elements()):
                fresh = generated_ideal(ring, [x], side).key
                assert principal_ideal(ring, x, side).key == fresh, (ring.name, side, x)
                o = _additive_order(ring, x)
                for k in range(1, o):
                    if gcd(k, o) == 1:
                        assert principal_ideal(ring, ring.smul(k, x), side).key == fresh


def test_submodule_matches_rebuild_loop():
    """The one-span submodule equals the fixed-point closure under the
    action of the scalar generators, over the ring and over its fixed
    subring, on both sides."""
    for inst in oracle_instances():
        ring = inst.ring
        fixed = SubringView(ring, fixed_subgroup(ring, inst.group.elements)).image()
        for side in (LEFT, RIGHT):
            for module in (ring_as_module(ring, side),
                           ring_as_module(ring, side, scalars=fixed.ring,
                                          embed=fixed.from_image)):
                maps = [partial(module._act_vec, s) for s in module.ring.generators()]
                for gens in generator_sets(inst):
                    assert (module.submodule(gens).key
                            == rebuild_closure(module.add_group, gens, maps).key), (
                        ring.name, side, gens)
