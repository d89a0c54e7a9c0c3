"""Whole-ring images without a Smith form, and the checks around subgroup keys.

A whole ring R whose cyclic orders form a divisibility chain d_1 | d_2 | ...
is its own image: `SubringView.image` of the whole subgroup and
`quotient_by_ideal` of zero return R with the reduction as both maps, and
build no `Coordinates`.  Here that premise is held to `Coordinates` built
directly, which give R's own orders and maps exactly on those rings; the
projection that skips the back-substitution down an identity key is held
to the one that runs it (`tests/oracles.py`).  Also here: `checked_key` on
keys made without `hermite_extend`, and transversal walks that leave no
cyclic garbage.
"""

import gc
import itertools

import pytest

from ringinv import ring_core
from ringinv.catalog import named_instances, random_instances
from ringinv.groups import trivial_group
from ringinv.invariants import GActionContext
from ringinv.radicals import jacobson_radical, prime_radical
from ringinv.ring_core import (
    TWOSIDED,
    AdditiveGroup,
    AdditiveMap,
    Coordinates,
    Ideal,
    RingError,
    Subgroup,
    SubringView,
    checked_key,
    copy_source,
    cyclic_ring,
    direct_product,
    generated_ideal,
    quotient_by_ideal,
    validate_ring,
)

from oracles import BackSubstitutedCoordinates
from test_ladder import ladder_instances

SEEDS = (20260808, 20260909)


def _rings():
    """Fresh rings: the named catalog, 100 random instances for each seed,
    and the ladder."""
    instances = named_instances() + ladder_instances()
    for seed in SEEDS:
        instances += random_instances(100, seed)[0]
    return [inst.ring for inst in instances]


@pytest.fixture(scope="module")
def rings():
    return _rings()


def _is_chain(orders) -> bool:
    return all(orders[i + 1] % orders[i] == 0 for i in range(len(orders) - 1))


def _whole(ring) -> Subgroup:
    return Subgroup.from_generators(ring.additive, ring.generators())


def _zero_ideal(ring) -> Ideal:
    return Ideal(ring, TWOSIDED, Subgroup.zero(ring.additive))


def _fixed_under_trivial_group(ring):
    return GActionContext(ring, trivial_group(ring)).fixed_image()


# -- R in its own coordinates is its own image ----------------------------------------

def test_own_coordinates_exactly_on_divisibility_chains(rings):
    chains = copies = 0
    for ring in rings:
        group = ring.additive
        coords = Coordinates(group, group.generators, group.relations)
        own = (coords.image.cyclic_orders == ring.cyclic_orders
               and all(coords.project(g) == g and coords.lift(g) == g
                       for g in ring.generators()))
        assert own == _is_chain(ring.cyclic_orders), ring.name
        images = [_fixed_under_trivial_group(ring), quotient_by_ideal(ring, _zero_ideal(ring)),
                  SubringView(ring, _whole(ring)).image()]
        for image in images:
            if own:
                assert image.ring is ring, ring.name
                assert all(image.to_image(x) == x == image.from_image(x)
                           for x in ring.generators()), ring.name
            else:
                assert image.ring is not ring, ring.name
                assert image.ring.cyclic_orders == coords.image.cyclic_orders
                assert copy_source(image.ring)[0] is ring, ring.name
        chains += own
        copies += not own
    # both branches are reached many times
    assert chains > 50 and copies > 50


def test_own_images_construct_no_coordinates(rings, monkeypatch):
    built = []

    class Counting(Coordinates):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(ring_core, "Coordinates", Counting)
    for ring in rings:
        # the same table as a new ring, on which no image is memoized yet
        ring = validate_ring(ring.cyclic_orders, ring.mul_table, name=ring.name)
        built.clear()
        _fixed_under_trivial_group(ring)
        quotient_by_ideal(ring, _zero_ideal(ring))
        # a copy builds one set of coordinates per image
        assert len(built) == (0 if _is_chain(ring.cyclic_orders) else 2), ring.name


def test_a_memoized_own_image_is_shared():
    ring = direct_product([cyclic_ring(2), cyclic_ring(4)])
    first = SubringView(ring, _whole(ring)).image(name="first")
    assert first.ring is ring
    assert SubringView(ring, _whole(ring)).image(name="second") is first


# -- projecting from the whole group by the Smith matrix alone ----------------------------

def _quotient_keys(ring):
    """The keys of some two-sided ideals of `ring`: zero, the two radicals,
    and the ideal each generator generates."""
    keys = [Subgroup.zero(ring.additive).key, prime_radical(ring).key,
            jacobson_radical(ring).key]
    keys += [generated_ideal(ring, [g], TWOSIDED).key for g in ring.generators()]
    return list(dict.fromkeys(keys))


def test_identity_key_projection_matches_the_back_substitution(rings):
    compared = 0
    for ring in rings[:120]:
        group = ring.additive
        for below in _quotient_keys(ring):
            coords = Coordinates(group, group.generators, below)
            oracle = BackSubstitutedCoordinates(group, group.generators, below)
            assert coords.image == oracle.image, ring.name
            assert coords.generators == oracle.generators, ring.name
            for x in ring.elements():
                assert coords.project(x) == oracle.project(x), (ring.name, x)
            for y in coords.image.elements():
                assert coords.lift(y) == oracle.lift(y), (ring.name, y)
            compared += 1
    assert compared > 200


def test_a_proper_subgroup_still_rejects_its_non_members():
    ring = cyclic_ring(8)
    coords = Coordinates(ring.additive, ((2,),), ring.additive.relations)
    assert coords.project((6,)) == (3,)
    with pytest.raises(RingError, match="not in the subgroup"):
        coords.project((3,))


# -- keys made without hermite_extend ---------------------------------------------------

@pytest.mark.parametrize("orders, key, message", [
    ((4, 2), ((2, 0),), "must be 2x2"),
    ((4, 2), ((2, 0), (0,)), "must be 2x2"),
    ((4, 2), ((0, 0), (0, 1)), "positive divisor"),
    ((4, 2), ((-2, 0), (0, 1)), "positive divisor"),
    ((4, 2), ((3, 0), (0, 1)), "positive divisor"),
    ((4, 2), ((2, 0), (1, 1)), "left of its pivot"),
    ((4, 4), ((2, 2), (0, 2)), r"outside \[0, 2\)"),
    ((4, 4), ((2, -1), (0, 2)), r"outside \[0, 2\)"),
    ((2, 4), ((1, 1), (0, 4)), "order relations"),
])
def test_checked_key_refuses_what_is_no_hermite_key(orders, key, message):
    with pytest.raises(RingError, match=message):
        checked_key(AdditiveGroup(orders), key)


def test_checked_key_passes_every_component_and_kernel_key(rings):
    """The components, and the kernels of multiplication by each generator
    on either side (its annihilators), pass the check they were made with."""
    for ring in rings:
        group = ring.additive
        for _, component in ring.primary_components():
            assert checked_key(group, component.key) is component.key
        for g in ring.generators():
            for times in (lambda x: ring.mul(g, x), lambda x: ring.mul(x, g)):
                kernel = AdditiveMap(group, [times(x) for x in ring.generators()],
                                     group.relations).kernel
                assert checked_key(group, kernel.key) is kernel.key
                assert not any(any(times(x)) for x in kernel.basis), ring.name


def test_component_keys_with_ones_off_the_diagonal_raise_at_once(monkeypatch):
    """Diagonal keys with every off-diagonal entry 1 are no Hermite keys:
    building the components raises before anything is interned."""
    real = ring_core._primary_key

    def ones_off_the_diagonal(group, q):
        return tuple(tuple(x if j == i else 1 for j, x in enumerate(row))
                     for i, row in enumerate(real(group, q)))
    monkeypatch.setattr(ring_core, "_primary_key", ones_off_the_diagonal)
    ring = direct_product([cyclic_ring(4), cyclic_ring(9)])
    interned = dict(ring.additive._subgroups)
    with pytest.raises(RingError, match="left of its pivot"):
        ring.primary_components()
    assert ring.additive._subgroups == interned
    with pytest.raises(RingError, match="left of its pivot"):
        jacobson_radical(ring)


# -- transversals ------------------------------------------------------------------------

def _pairs(rings):
    """(sub, below) with below ⊆ sub: the whole group over zero and over
    each primary component, each component over zero and over None."""
    out = []
    for ring in rings:
        whole, zero = _whole(ring), Subgroup.zero(ring.additive)
        out.append((whole, zero))
        for _, component in ring.primary_components():
            out += [(whole, component), (component, zero), (component, None)]
    return out


def test_transversals_walk_in_lexicographic_order(rings):
    for sub, below in _pairs(rings[:80]):
        group = sub.group
        bounds = (group.cyclic_orders if below is None
                  else [row[i] for i, row in enumerate(below.key)])
        ranges = [range(b // row[i]) for i, (row, b) in enumerate(zip(sub.key, bounds))]
        expected = [group.combine(c, sub.key) for c in itertools.product(*ranges)]
        assert list(sub.transversal(below)) == expected


def test_transversals_leave_no_cyclic_garbage(rings):
    pairs = _pairs(rings[:80])
    gc.collect()
    gc.disable()
    try:
        for sub, below in pairs:
            for _ in sub.transversal(below):
                pass
            # a walk dropped before its end, as `cover` drops one
            next(itertools.islice(sub.transversal(below), 1, None), None)
        assert gc.collect() == 0
    finally:
        gc.enable()
