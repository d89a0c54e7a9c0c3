"""Check-path facts decided once, against their per-call recomputations.

The action context of an instance is built once and shared by its tags and
its checks; proper-splitting scans and the LEM_C6/COR_C8 clause scans are
cached on the context; quotient lengths are read from a colength memo on
the ring; regular elements and units are decided once per power orbit.
Each cached or memoized result is compared here with the same fact computed
afresh, on the named catalog, on `random_instances(100, s)` for two seeds
and on the ladder rings.
"""

import pickle

import pytest

from ringinv import invariants, theorems
from ringinv.caps import Caps
from ringinv.catalog import derive_tags, named_instances, random_instances
from ringinv.invariants import (
    GActionContext,
    NotInvertible,
    _scan_proper_splitting,
    averaging_idempotent,
    is_proper_splitting,
)
from ringinv.radicals import enumerate_ideals, quotient_length, regular_elements_quotient
from ringinv.ring_core import LEFT, RIGHT, RingError, Subgroup, chain_length, generated_ideal
from ringinv.theorems import (
    _c6_clauses,
    _c6_scan,
    _capped,
    check,
    rebuild_context,
    to_jsonable,
)

from oracles import regular_and_unit_scan
from test_ladder import ladder_instances

CAPS = Caps()
SEEDS = (20260808, 20260909)


@pytest.fixture(scope="module")
def instances():
    out = named_instances()
    for seed in SEEDS:
        out.extend(random_instances(100, seed)[0])
    return out + ladder_instances()


# -- one context per instance ------------------------------------------------------

def test_instance_context_is_built_once_and_feeds_the_tags():
    for inst in named_instances():
        ctx = inst.context()
        assert inst.context() is ctx
        # derive_tags asked this context for its splittings and bad primes
        assert ("splittings", CAPS) in ctx._cache
        assert ("bad_primes", CAPS) in ctx._cache
        assert rebuild_context(ctx) is not ctx


def test_pickled_instance_carries_its_context():
    inst = named_instances()[4]
    copy = pickle.loads(pickle.dumps(inst))
    ctx = copy.context()
    assert ctx.ring is copy.ring and ctx.group is copy.group
    assert ("splittings", CAPS) in ctx._cache
    assert derive_tags(copy) == inst.tags


def test_caps_echo_is_a_fresh_copy():
    caps = Caps(d_search=3)
    echo = caps.as_dict()
    echo["masks"] = ["N1:B"]
    assert caps.as_dict() == {**Caps().as_dict(), "d_search": 3}
    assert caps.as_dict() is not caps.as_dict()


# -- regular elements and units by power orbit ----------------------------------------

def test_regular_elements_and_units_match_element_scans(instances):
    for inst in instances:
        ring = inst.ring
        regular, units = regular_and_unit_scan(ring)
        out = regular_elements_quotient(ring)
        assert set(out.regular) == regular, ring.name
        assert out.units == (None if units is None else tuple(sorted(units))), ring.name


# -- colengths ------------------------------------------------------------------------

def test_colengths_match_chain_lengths_from_scratch(instances):
    for inst in instances:
        ring = inst.ring
        for side in (LEFT, RIGHT):
            ideals, _ = enumerate_ideals(ring, side, CAPS)
            # largest first, so later climbs stop at colengths found earlier
            for ideal in sorted(ideals, key=lambda i: -i.size):
                expected = chain_length(
                    ideal.sub, lambda x: generated_ideal(ring, [x], side).sub)
                assert quotient_length(ring, side, ideal.sub, CAPS) == expected, (
                    ring.name, side)


def test_colength_memo_keeps_the_cap_and_the_ideal_check():
    m2f2 = next(i for i in named_instances() if i.name == "m2f2").ring
    zero = Subgroup.zero(m2f2.additive)
    assert quotient_length(m2f2, LEFT, zero, CAPS) == 2
    # memoized now, and still None above the module cap
    assert quotient_length(m2f2, LEFT, zero, CAPS.updated(module_order=8)) is None
    not_left = Subgroup.from_generators(m2f2.additive, [(1, 0, 0, 0)])
    with pytest.raises(RingError):
        quotient_length(m2f2, LEFT, not_left, CAPS)


# -- proper-splitting and C6 scans, cached per splitting and lattice -------------------

def _splitting_contexts(instances):
    """m2f2, m2f3 and every commutative instance, ladder aside."""
    return [inst for inst in instances if inst.provenance != "ladder"
            and (inst.name in ("m2f2", "m2f3") or inst.ring.is_commutative)]


def _splittings(ctx):
    found = list(ctx.splittings(CAPS)[0])
    try:
        found.append(averaging_idempotent(ctx))
    except NotInvertible:
        pass
    return found


def test_cached_scans_match_per_side_scans(instances, monkeypatch):
    insts = _splitting_contexts(instances)
    assert {"m2f2", "m2f3"} <= {inst.name for inst in insts}
    assert sum(inst.ring.is_commutative for inst in insts) > 150
    calls = []

    def counting(kind, scan):
        def wrapper(ctx, sd, side, caps):
            calls.append((kind, ctx, sd.key, side))
            return scan(ctx, sd, side, caps)
        return wrapper
    # the cached paths look the scans up in their modules; the expected
    # values below call the imported originals, which are not counted
    monkeypatch.setattr(invariants, "_scan_proper_splitting",
                        counting("is_proper", _scan_proper_splitting))
    monkeypatch.setattr(theorems, "_c6_scan", counting("c6", _c6_scan))
    for n, inst in enumerate(insts):
        ring, group = inst.ring, inst.group
        ctx = GActionContext(ring, group)
        # both orders of asking, so either side can fill the cache
        sides = (LEFT, RIGHT) if n % 2 == 0 else (RIGHT, LEFT)
        for sd in _splittings(ctx):
            for side in sides:
                fresh = GActionContext(ring, group)
                report = is_proper_splitting(ctx, sd, side, CAPS)
                expected = _scan_proper_splitting(fresh, sd, side, CAPS)
                assert (report.status, report.equality_holds, report.witness) == (
                    expected.status, expected.equality_holds, expected.witness), inst.name
                clauses = _c6_clauses(ctx, sd, side, CAPS, side)
                capped, scans = _c6_scan(fresh, sd, side, CAPS)
                for clause, (status, witness) in zip(clauses, scans):
                    assert clause.status == _capped(status, capped), inst.name
                    assert to_jsonable(clause.witness) == to_jsonable(witness), inst.name
                    assert f"{side} " in clause.text
        # one scan per splitting on a commutative ring, one per side otherwise
        scanned = sorted({(sd.key, side) for sd in _splittings(ctx)
                          for side in ((LEFT,) if ring.is_commutative else (LEFT, RIGHT))})
        for kind in ("c6", "is_proper"):
            assert sorted((key, side) for k, c, key, side in calls
                          if k == kind and c is ctx) == scanned, (inst.name, kind)


def test_identity_and_averaging_splittings_share_one_scan():
    """Under G = 1 the averaging splitting is the identity splitting, so
    COR_C8 reads the scans LEM_A6 and LEM_C6 made and adds none."""
    z12 = next(i for i in named_instances() if i.name == "z12")
    ctx = GActionContext(z12.ring, z12.group)

    def scans():
        return {key for key in ctx._cache
                if isinstance(key, tuple) and key[0] in ("c6", "is_proper")}
    for theorem in ("LEM_A6", "LEM_C6"):
        check(theorem, ctx, CAPS)
    before = scans()
    assert check("COR_C8", ctx, CAPS).verdict == "verified"
    assert before and scans() == before
