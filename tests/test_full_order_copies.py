"""Full-order copies of R carry R's radicals and ideal lattices.

R^G under G = 1, R/0 and R^N under N = 1 are all of R; when R's cyclic
orders are not Smith invariant factors they are validated copies S in other
coordinates, and `ring_core.copy_source` names R and the checked map
R → S.  The radicals and exact exhaustive ideal lattices of S (with their
colengths) are R's, carried by that map; each is compared here with the
same product computed on a fresh ring with S's table, which has no source.
Lattices that are sampled or cut at `ideal_count` are computed on S.  Also
here: quasi-regularity by circle powers, the identity hint of subring
images, and mask specs parsed once per mask set.
"""

import json
from pathlib import Path

import pytest

from ringinv import radicals, ring_core, theorems
from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances
from ringinv.groups import trivial_group
from ringinv.invariants import GActionContext
from ringinv.radicals import (
    enumerate_ideals,
    is_quasi_regular,
    jacobson_radical,
    prime_radical,
    quotient_length,
)
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    SIDES,
    TWOSIDED,
    Ideal,
    RingError,
    Subgroup,
    SubringView,
    copy_source,
    cyclic_ring,
    direct_product,
    quotient_by_ideal,
    validate_ring,
    zero_mult_ring,
)
from ringinv.theorems import THEOREM_IDS, check

from oracles import solved_quasi_regular

SEEDS = (20260808, 20260909)
MASKS = Path(__file__).resolve().parents[1] / "ringbench" / "masks.json"


def fresh(ring):
    """The same table as a new ring object: no cache and no source."""
    return validate_ring(ring.cyclic_orders, ring.mul_table, name=ring.name)


def whole_ring_image(ring):
    return SubringView(ring, Subgroup.from_generators(ring.additive, ring.generators())).image()


def zero_quotient(ring):
    return quotient_by_ideal(ring, Ideal(ring, TWOSIDED, Subgroup.zero(ring.additive)))


def copies_of(ring, ctx=None):
    """The full-order copies of `ring` the engine makes: R^G when G fixes
    everything, and R/0; those whose coordinates are R's own are R."""
    images = [zero_quotient(ring)]
    if ctx is not None and ctx.fixed.sub.size == ring.order:
        images.append(ctx.fixed_image())
    return [image.ring for image in images if image.ring is not ring]


def z2xz5():
    return direct_product([cyclic_ring(2), cyclic_ring(5)], name="z2xz5")


def z4xz9():
    return direct_product([cyclic_ring(4), cyclic_ring(9)], name="z4xz9")


def nonunital():
    """Z/4 with e·e = 2e times the zero ring on Z/3: orders (4, 3), Smith
    order (12,), no identity."""
    return direct_product([cyclic_ring(4, c=2), zero_mult_ring((3,))], name="nonunital")


@pytest.fixture(scope="module")
def copies():
    insts = named_instances()
    for seed in SEEDS:
        insts.extend(random_instances(100, seed)[0])
    out = []
    for inst in insts:
        out.extend(copies_of(inst.ring, GActionContext(inst.ring, inst.group)))
    for ring in (z2xz5(), z4xz9(), nonunital()):
        out.extend(copies_of(ring, GActionContext(ring, trivial_group(ring))))
    return out


def test_the_named_copies_record_their_source():
    for ring in (z2xz5(), z4xz9(), nonunital()):
        ctx = GActionContext(ring, trivial_group(ring))
        image = ctx.fixed_image()
        assert image.ring is not ring
        parent, project = copy_source(image.ring)
        assert parent is ring and project == image.to_image
        quot = zero_quotient(ring)
        assert copy_source(quot.ring)[0] is ring
        assert image.ring.is_unital == quot.ring.is_unital == ring.is_unital
    # own coordinates give R itself, which has no source
    z10 = cyclic_ring(10)
    assert whole_ring_image(z10).ring is z10 and copy_source(z10) is None


def test_carried_radicals_equal_the_computed_ones(copies):
    assert len(copies) > 100
    for ring in copies:
        assert copy_source(ring) is not None, ring.name
        bare = fresh(ring)
        assert prime_radical(ring).sub == prime_radical(bare).sub, ring.name
        assert jacobson_radical(ring).sub == jacobson_radical(bare).sub, ring.name
        assert prime_radical(ring).ring is ring and jacobson_radical(ring).ring is ring


def test_carried_lattices_and_colengths_equal_the_computed_ones(copies):
    caps = Caps()
    for ring in copies:
        bare = fresh(ring)
        for side in SIDES:
            carried, exhaustive = enumerate_ideals(ring, side, caps)
            computed, bare_exhaustive = enumerate_ideals(bare, side, caps)
            assert exhaustive and bare_exhaustive, ring.name
            assert [i.key for i in carried] == [i.key for i in computed], (ring.name, side)
            assert all(i.ring is ring and i.side == side for i in carried)
            for ideal in carried:
                assert (quotient_length(ring, side, ideal.sub, caps)
                        == quotient_length(bare, side, ideal.sub, caps)), (ring.name, side)


def test_the_lattice_is_carried_not_searched(monkeypatch):
    ring = z4xz9()
    image = GActionContext(ring, trivial_group(ring)).fixed_image().ring
    enumerate_ideals(ring, LEFT)
    searched = []
    real = radicals._principal_lattice

    def spying(r, side, caps):
        searched.append(r)
        return real(r, side, caps)
    monkeypatch.setattr(radicals, "_principal_lattice", spying)
    assert enumerate_ideals(image, LEFT)[1]
    assert searched == []


def test_a_cut_lattice_is_computed_on_the_copy():
    """The zero ring on Z/2 × Z/2 × Z/3 (Smith orders (2, 6)) has 10
    ideals, 8 of them principal, so with 3 allowed the search is cut."""
    caps = Caps(ideal_count=3)
    ring = zero_mult_ring((2, 2, 3))
    image = GActionContext(ring, trivial_group(ring)).fixed_image().ring
    assert copy_source(image) is not None
    assert not enumerate_ideals(ring, LEFT, caps)[1]
    assert radicals._carried_lattice(image, LEFT, caps) is None
    ideals, exhaustive = enumerate_ideals(image, LEFT, caps)
    bare_ideals, bare_exhaustive = enumerate_ideals(fresh(image), LEFT, caps)
    assert not exhaustive and not bare_exhaustive
    assert [i.key for i in ideals] == [i.key for i in bare_ideals]


def test_a_sampled_lattice_is_computed_on_the_copy():
    """Above `exhaustive_ideal_order` the lattice is a sample drawn on the
    copy, never R's carried."""
    caps = Caps(exhaustive_ideal_order=8)
    ring = z2xz5()
    image = zero_quotient(ring).ring
    assert radicals._carried_lattice(image, TWOSIDED, caps) is None
    ideals, exhaustive = enumerate_ideals(image, TWOSIDED, caps)
    bare_ideals, _ = enumerate_ideals(fresh(image), TWOSIDED, caps)
    assert not exhaustive
    assert [i.key for i in ideals] == [i.key for i in bare_ideals]


def test_a_corrupted_map_makes_from_basis_raise():
    """Z/4 × Z/5 × Z/2 has Smith orders (2, 20), so R/0 is a copy, and
    J(R) = 2Z/4 is not zero.  Of its three subgroups of order 2 one is no
    ideal; a map that sends everything to its generator v spans it."""
    ring = direct_product([cyclic_ring(4), cyclic_ring(5), cyclic_ring(2)])
    for product in (prime_radical, jacobson_radical,
                    lambda s: enumerate_ideals(s, RIGHT)):
        image = zero_quotient(ring).ring
        assert image.cyclic_orders == (2, 20)
        v = next(x for x in image.elements() if x != image.zero
                 and image.smul(2, x) == image.zero
                 and not Ideal(image, TWOSIDED, Subgroup.from_generators(
                     image.additive, [x])).verify_closure())
        image._extra["copy_source"] = (ring, lambda x, v=v: v)
        with pytest.raises(RingError, match="do not span a sided ideal"):
            product(image)


def test_a_carried_radical_is_checked_nilpotent():
    """A map that sends everything to an idempotent e with Z·e an ideal
    (the identity of the factor F2 or F5) carries a closed ideal that is
    not nilpotent."""
    ring = direct_product([cyclic_ring(4), cyclic_ring(5), cyclic_ring(2)])
    for radical in (prime_radical, jacobson_radical):
        image = zero_quotient(ring).ring
        e = next(x for x in image.elements() if x != image.zero
                 and image.mul(x, x) == x
                 and Ideal(image, TWOSIDED, Subgroup.from_generators(
                     image.additive, [x])).verify_closure())
        image._extra["copy_source"] = (ring, lambda x, e=e: e)
        with pytest.raises(radicals.CrossCheckError, match="is not nilpotent"):
            radical(image)


# -- quasi-regularity by circle powers --------------------------------------------------

def test_circle_powers_decide_the_whole_orbit():
    """In F5, 1∘1 = 3, 3∘1 = 2 and 2∘1 = 0: 1, 3 and 2 are quasi-regular,
    each with its inverse in the orbit checked; 4 = −1 is not, and its
    powers 4∘4 = 4 + 4 + 16 = 4 repeat."""
    f5 = cyclic_ring(5)
    assert radicals._circle_powers(f5, (1,))
    assert {k: v for k, v in f5._extra.items() if k[0] == "qr"} == {
        ("qr", (1,)): True, ("qr", (3,)): True, ("qr", (2,)): True}
    assert not radicals._circle_powers(f5, (4,))
    assert f5._extra[("qr", (4,))] is False


def test_every_orbit_member_gets_a_checked_inverse(monkeypatch):
    checked = []
    real = radicals._check_quasi_inverse

    def counting(ring, z, y):
        checked.append((z, y))
        return real(ring, z, y)
    monkeypatch.setattr(radicals, "_check_quasi_inverse", counting)
    assert is_quasi_regular(cyclic_ring(5), (1,))
    assert checked == [((2,), (1,)), ((3,), (3,)), ((1,), (2,))]


def test_a_wrong_inverse_raises():
    # 1∘1 = 3 in F5, so 1 is not the quasi-inverse of 1
    with pytest.raises(radicals.CrossCheckError, match="does not check"):
        radicals._check_quasi_inverse(cyclic_ring(5), (1,), (1,))


def test_circle_powers_match_the_solve(copies):
    """Every element, nilpotent or not, straight to the circle powers."""
    for ring in copies[:40] + [cyclic_ring(7), cyclic_ring(9), z4xz9()]:
        for y in ring.elements():
            assert radicals._circle_powers(ring, y) == solved_quasi_regular(ring, y), (
                ring.name, y)


# -- the identity hint of subring images ----------------------------------------------

def test_fixed_images_take_the_identity_as_a_checked_hint(monkeypatch):
    """A fixed-ring image of a unital R gets 1_R's image as the identity to
    check, never a solve; a full-order copy of a ring with no identity gets
    none, and a proper subring of one solves (hint None)."""
    hints = []
    real_identity = ring_core.checked_identity

    def spying(ring, hint=None):
        hints.append(hint)
        return real_identity(ring, hint)
    copied = 0
    for inst in named_instances():
        # a fresh ring, so that no image of it is memoized yet
        ring = fresh(inst.ring)
        fixed = SubringView(ring, Subgroup(ring.additive, inst.context().fixed.sub.key))
        hints.clear()
        with monkeypatch.context() as m:
            m.setattr(ring_core, "checked_identity", spying)
            image = fixed.image()
        if image.ring is ring:
            continue
        copied += 1
        if ring.is_unital:
            assert hints == [image.to_image(ring.unit)], ring.name
        elif image.ring.order == ring.order:
            assert hints == [] and image.ring.unit is None, ring.name
        else:
            assert hints == [None], ring.name
        assert image.ring.table_key() == fresh(image.ring).table_key(), ring.name
    assert copied


# -- mask specs parsed once ---------------------------------------------------------------

def test_masked_flags_and_echo_match_the_spec_by_spec_parse():
    masks = frozenset(json.loads(MASKS.read_text()))
    theorems._parsed_masks.cache_clear()
    for inst in named_instances():
        ctx = inst.context()
        for theorem in THEOREM_IDS:
            report = check(theorem, ctx, masks=masks)
            plain = check(theorem, ctx)
            expected = []
            for h in plain.hypotheses:
                expected.append(any(
                    th == theorem and cond and theorems._cond_matches(h.cond, cond)
                    for th, _, cond in (spec.partition(":") for spec in masks)))
            assert [h.masked for h in report.hypotheses] == expected, (inst.name, theorem)
            assert report.caps["masks"] == sorted(masks)
            assert check(theorem, ctx, masks=set(masks)).as_json() == report.as_json()
    assert theorems._parsed_masks.cache_info().misses == 2


def test_a_theorem_s_masks_mask_no_other_theorem():
    """With the specs of one theorem only, every other theorem's clauses
    stay unmasked, whatever their condition ids."""
    specs = json.loads(MASKS.read_text())
    contexts = [inst.context() for inst in named_instances()]
    for masked in THEOREM_IDS:
        masks = frozenset(s for s in specs if s.partition(":")[0] == masked)
        assert masks
        for ctx in contexts:
            for theorem in THEOREM_IDS:
                flags = [h.masked for h in check(theorem, ctx, masks=masks).hypotheses]
                assert any(flags) if theorem == masked else not any(flags), (
                    masked, theorem)
