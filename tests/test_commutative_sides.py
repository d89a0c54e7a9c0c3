"""One computation per sided product on commutative rings.

On a commutative ring the left, right and two-sided ideals are the same
subgroups, so every exact side-indexed product is computed once and
relabelled with the side asked for, by the one memo `ring_core.sided`.
These tests check that memo directly, recompute each shared product per side
from uncached primitives (`generated_ideal`, `join_closure`,
`chain_length`), and check that noncommutative rings keep one product per
side, and that sampled products keep one sample per side.
"""

import hashlib
import itertools
import json

import pytest

from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances
from ringinv.invariants import ProperSplittingReport, degenerate_trace_ideal
from ringinv.radicals import (
    UdimCertificate,
    _udim_greedy,
    enumerate_ideals,
    ideal_lattice,
    principal_ideal,
    quotient_length,
    regular_elements_quotient,
    uniform_dimension,
)
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    SIDES,
    TWOSIDED,
    Subgroup,
    chain_length,
    generated_ideal,
    join_closure,
    minimal_closures,
    sided,
)
from ringinv.theorems import THEOREM_IDS, check

from oracles import regular_and_unit_scan
from test_ladder import ladder_instances

CAPS = Caps()


def _commutative_instances():
    out = [inst for inst in named_instances() if inst.ring.is_commutative]
    for seed in (20260808, 20260909):
        out.extend(inst for inst in random_instances(40, seed)[0]
                   if inst.ring.is_commutative)
    return out


def _commutes_on_elements(ring) -> bool:
    return all(ring.mul(x, y) == ring.mul(y, x)
               for x, y in itertools.combinations(ring.elements(), 2))


# -- per-side oracles from uncached primitives ----------------------------------

def _close(ring, side):
    return lambda x: generated_ideal(ring, [x], side).sub


def _lattice(ring, side, gens_of):
    """(subgroups, exhaustive) of the joins of the ideals `gens_of(x)`
    generate, over every x."""
    return join_closure((generated_ideal(ring, gens_of(x), side).sub
                         for x in ring.elements()), CAPS.ideal_count)


def _invariant_lattice(ctx, side):
    return _lattice(ctx.ring, side, lambda x: {g.apply(x) for g in ctx.group.elements})


def _udim_family(ring, side):
    """The greedy direct family of atoms the socle is measured by."""
    span, family = Subgroup.zero(ring.additive), []
    for atom in minimal_closures(ring.additive, _close(ring, side)):
        joined = span.join(atom)
        if joined.size == span.size * atom.size:
            span, family = joined, family + [atom]
    return family


def _proper_splitting(ctx, subs, exhaustive, caps=CAPS):
    """The first splitting with e(I) ⊆ I ∩ R^G on every invariant ideal I
    in `subs`, and its status."""
    def proper_on(sd, sub):
        e_image = Subgroup.from_generators(ctx.ring.additive, [sd.project(b) for b in sub.basis])
        return all(sub.intersect(ctx.fixed.sub).contains(x) for x in e_image.basis)

    candidates, enumerated = ctx.splittings(caps)
    any_capped = not enumerated
    for sd in candidates:
        if all(proper_on(sd, sub) for sub in subs):
            if exhaustive:
                return sd, "yes"
            any_capped = True
    return None, ("capped" if any_capped else "no")


def _trace_scan(ctx, powers):
    """`degenerate_trace_ideal` scanning both sides, as (side, subgroup, d,
    capped)."""
    capped = False
    for side in (LEFT, RIGHT):
        subs, exhaustive = _invariant_lattice(ctx, side)
        capped = capped or not exhaustive
        for sub in subs:
            if sub.is_zero():
                continue
            t_img = ctx.trace_image(sub.basis)
            if t_img.is_zero():
                return side, sub, 1, capped
            if powers:
                d, stabilized = ctx.ring.power_chain(t_img, CAPS.d_search)
                if d is not None:
                    return side, sub, d, capped
                capped = capped or not stabilized
    return None, None, None, capped


# -- the rule on commutative rings ------------------------------------------------

@pytest.fixture(scope="module")
def commutative_instances():
    return _commutative_instances()


def test_commutative_instances_cover_named_and_random(commutative_instances):
    names = {inst.name for inst in commutative_instances}
    assert {"z12", "f3xf3", "f2c2", "zm_f9"} <= names
    assert len(commutative_instances) > 60


def test_shared_products_equal_their_per_side_recomputation(commutative_instances):
    for inst in commutative_instances:
        ring, ctx = inst.ring, inst.context()
        image = ctx.fixed_image()
        assert image.ring.is_commutative
        for side in SIDES:
            for x in ring.elements():
                ideal = principal_ideal(ring, x, side)
                assert ideal.side == side
                assert ideal.sub == generated_ideal(ring, [x], side).sub, (inst.name, x)

            ideals, exhaustive = enumerate_ideals(ring, side, CAPS)
            assert {i.side for i in ideals} <= {side}
            assert ([i.sub for i in ideals], exhaustive) == _lattice(
                ring, side, lambda x: [x]), (inst.name, side)

            inv, exhaustive = ctx.invariant_ideals(side, CAPS)
            assert {i.side for i in inv} <= {side}
            assert ([i.sub for i in inv], exhaustive) == _invariant_lattice(ctx, side)

            for ideal in ideals:
                assert quotient_length(ring, side, ideal.sub, CAPS) == chain_length(
                    ideal.sub, _close(ring, side)), (inst.name, side, ideal)

            cert = uniform_dimension(ring, side, CAPS)
            assert cert.side == side and {w.side for w in cert.witness} <= {side}
            assert [w.sub for w in cert.witness] == _udim_family(ring, side)
            assert cert.value == len(cert.witness)

            for j in enumerate_ideals(image.ring, side, CAPS)[0]:
                extended = ctx.extend(j.sub, side)
                assert extended.side == side
                assert extended.sub == generated_ideal(
                    ring, [image.from_image(b) for b in j.sub.basis], side).sub

            sd, status = ctx.proper_splitting(side, CAPS)
            want_sd, want_status = _proper_splitting(ctx, *_invariant_lattice(ctx, side))
            assert status == want_status, (inst.name, side)
            assert (sd and sd.key) == (want_sd and want_sd.key)

        for powers in (False, True):
            ideal, d, capped = degenerate_trace_ideal(ctx, CAPS, powers)
            want = _trace_scan(ctx, powers)
            got = (ideal and ideal.side, ideal and ideal.sub, d, capped)
            assert got == want, (inst.name, powers)

        regular, units = regular_and_unit_scan(ring)
        assert regular == (units if ring.is_unital else set()), inst.name
        assert regular_elements_quotient(ring) == (
            "equals-ring" if ring.is_unital else "degenerate-undefined"), inst.name


# -- noncommutative rings keep one product per side ---------------------------------

def test_is_commutative_matches_element_pairs():
    sweep_set_0 = named_instances() + random_instances(100, 20260808)[0]
    for inst in sweep_set_0:
        assert inst.ring.is_commutative == _commutes_on_elements(inst.ring), inst.name
    noncommutative = {inst.name for inst in sweep_set_0 if not inst.ring.is_commutative}
    assert {"m2f2", "m2f3"} < noncommutative
    for inst in ladder_instances():
        assert not inst.ring.is_commutative, inst.name


def test_noncommutative_sides_are_not_shared():
    m2f2 = next(inst.ring for inst in named_instances() if inst.name == "m2f2")
    lattices = {}
    for side in SIDES:
        ideals, exhaustive = enumerate_ideals(m2f2, side, CAPS)
        assert exhaustive and {i.side for i in ideals} == {side}
        assert [i.sub for i in ideals] == _lattice(m2f2, side, lambda x: [x])[0]
        lattices[side] = {i.sub for i in ideals}
        for x in m2f2.elements():
            assert principal_ideal(m2f2, x, side).sub == _close(m2f2, side)(x)
    assert lattices[LEFT] != lattices[RIGHT]
    # the two-sided ideals of the simple ring M2(F2) are 0 and R
    assert len(lattices[TWOSIDED]) == 2 < len(lattices[LEFT])


# -- the memo itself --------------------------------------------------------------

def _named_ring(name):
    return next(inst.ring for inst in named_instances() if inst.name == name)


def _counting(compute):
    """`compute`, wrapped, and the list of sides it is called with."""
    calls = []

    def wrapped(side):
        calls.append(side)
        return compute(side)
    return wrapped, calls


def test_sided_computes_once_per_side_on_a_noncommutative_ring():
    m2f2 = _named_ring("m2f2")
    e11 = (1, 0, 0, 0)
    compute, calls = _counting(lambda s: generated_ideal(m2f2, [e11], s))
    store = {}
    got = {side: sided(store, ("e11",), m2f2, side, compute) for side in SIDES + SIDES}
    assert calls == list(SIDES)
    for side in SIDES:
        assert got[side].side == side
        assert got[side].sub == generated_ideal(m2f2, [e11], side).sub
    assert got[LEFT].sub != got[RIGHT].sub


def test_sided_relabels_one_left_result_on_a_commutative_ring():
    """Every ideal nested in the result carries the side asked for: in a
    list, a tuple, a dict value and both result records."""
    z12 = _named_ring("z12")

    def nested(side):
        ideal = generated_ideal(z12, [(2,)], side)
        return ([ideal], (ideal, 3), {"ideal": ideal, "n": 1},
                ProperSplittingReport("no", ideal, False),
                UdimCertificate(1, [ideal], "exhaustive", side))
    compute, calls = _counting(nested)
    store = {}
    left_sub = generated_ideal(z12, [(2,)], LEFT).sub
    for side in (RIGHT, TWOSIDED, LEFT, RIGHT):
        listed, pair, mapping, report, cert = sided(store, ("nested",), z12, side, compute)
        ideals = [listed[0], pair[0], mapping["ideal"], report.witness, cert.witness[0]]
        assert {i.side for i in ideals} == {side}
        assert {i.sub for i in ideals} == {left_sub}
        assert (pair[1], mapping["n"]) == (3, 1)
        assert (report.status, report.equality_holds) == ("no", False)
        assert (cert.value, cert.maximality, cert.side) == (1, "exhaustive", side)
    assert calls == [LEFT]


def test_sided_keeps_inexact_products_per_side():
    z12 = _named_ring("z12")
    compute, calls = _counting(lambda s: generated_ideal(z12, [(2,)], s))
    store = {}
    for side in SIDES + SIDES:
        assert sided(store, ("sample",), z12, side, compute, exact=False).side == side
    assert calls == list(SIDES)


# -- sampled branches keep one sample per side ------------------------------------

LOW_CAPS = Caps(exhaustive_ideal_order=3, udim_exhaustive_order=3, sample_count=3)
SAMPLED = ("z12", "f3xf3", "f2c2", "zm_f9")


def _sampled_instances():
    return [inst for inst in named_instances() if inst.name in SAMPLED]


def test_sampled_products_stay_per_side():
    differs = False
    for inst in _sampled_instances():
        ring, ctx = inst.ring, inst.context()
        assert ring.is_commutative and ring.order > LOW_CAPS.exhaustive_ideal_order
        sampled = {}
        for side in (LEFT, RIGHT):
            ideals, exhaustive = enumerate_ideals(ring, side, LOW_CAPS)
            want, want_exhaustive = ideal_lattice(
                ring, side, lambda x: generated_ideal(ring, [x], side), 17, LOW_CAPS)
            assert not exhaustive and not want_exhaustive
            assert [(i.side, i.sub) for i in ideals] == [(i.side, i.sub) for i in want]

            inv, _ = ctx.invariant_ideals(side, LOW_CAPS)
            want, _ = ideal_lattice(ring, side, lambda x: generated_ideal(
                ring, {g.apply(x) for g in ctx.group.elements}, side), 31, LOW_CAPS)
            assert [(i.side, i.sub) for i in inv] == [(i.side, i.sub) for i in want]
            sd, status = ctx.proper_splitting(side, LOW_CAPS)
            want_sd, want_status = _proper_splitting(
                ctx, [i.sub for i in want], False, LOW_CAPS)
            assert (status, sd and sd.key) == (want_status, want_sd and want_sd.key)

            cert = uniform_dimension(ring, side, LOW_CAPS)
            want = _udim_greedy(ring, side, LOW_CAPS)
            assert cert.maximality == "capped" and cert.side == side
            assert (cert.value, [(w.side, w.sub) for w in cert.witness]) == (
                want.value, [(w.side, w.sub) for w in want.witness])
            sampled[side] = [i.sub for i in ideals]
        differs = differs or sampled[LEFT] != sampled[RIGHT]
    # the samples are drawn per side, and on some ring they differ
    assert differs


def test_sampled_check_reports_keep_their_bytes():
    """All 18 statements under caps that sample every lattice of these
    rings; the digest was taken when each side was computed on its own."""
    reports = []
    for inst in _sampled_instances():
        ctx = inst.context()
        reports.extend(check(theorem, ctx, LOW_CAPS, (), seed=0).as_json()
                       for theorem in THEOREM_IDS)
    payload = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "d00e43230da41a61cc87c8227de63e0221451e37ffdb7a4bef48c348ffe68641")
