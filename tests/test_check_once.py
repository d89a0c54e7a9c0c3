"""Check-path facts decided once, against their per-call recomputations.

The action context of an instance is built once and shared by its tags and
its checks; proper-splitting scans and the LEM_C6/COR_C8 clause scans are
cached on the context; quotient lengths are read from a colength memo on
the ring.  Regular elements and units are not listed at all: a finite ring
with a regular element is unital and its regular elements are its units,
so COR_A8's goldie clause is read off unitality.  Each cached, memoized or
derived result is compared here with the same fact computed afresh by
element scans, on the named catalog, on `random_instances(100, s)` for two
seeds and on the ladder rings; the goldie clause also on M2(F5) under
conjugation by diag(2, 1) and on a non-unital ring with a unital fixed ring.
"""

import json
import pickle

import pytest

from ringinv import groups, invariants, theorems
from ringinv.caps import Caps
from ringinv.catalog import Instance, derive_tags, named_instances, random_instances
from ringinv.groups import RingAutomorphism
from ringinv.invariants import (
    GActionContext,
    NotInvertible,
    _scan_proper_splitting,
    averaging_idempotent,
    is_proper_splitting,
    unit_group,
)
from ringinv.radicals import enumerate_ideals, quotient_length, regular_elements_quotient
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    RingError,
    Subgroup,
    chain_length,
    cyclic_ring,
    direct_product,
    generated_ideal,
)
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
from test_lattice_once import _probe

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


def test_equal_caps_hash_once_and_alike():
    """Caps hash as their field tuple, computed once per object: equal caps
    from `Caps()`, `Caps.parse` and `updated`, and one sent through pickle
    as to a `--jobs` worker, hash equal and find each other's memo entries;
    the echo keeps its bytes."""
    made = [Caps(d_search=3), Caps.parse("d_search=3"), Caps().updated(d_search=3),
            Caps.parse("d_search=7").updated(d_search=3)]
    made.append(pickle.loads(pickle.dumps(made[0])))
    tuple_hash = hash(tuple(Caps(d_search=3).as_dict().values()))
    for caps in made:
        assert caps == made[0] and hash(caps) == hash(caps) == tuple_hash
        store = {("inv_ideals", caps, "left"): caps}
        assert all(store.get(("inv_ideals", other, "left")) is caps for other in made)
    assert hash(Caps()) == hash(tuple(Caps().as_dict().values())) != tuple_hash
    assert json.dumps(Caps.parse("").as_dict(), sort_keys=True) == (
        '{"d_search": 16, "exhaustive_ideal_order": 256, "group_cap": 720, '
        '"ideal_count": 4096, "module_order": 4096, "nilpotency_iterations": 64, '
        '"sample_count": 48, "splitting_enum": 2048, "udim_exhaustive_order": 256}')


# -- regular elements and units read off unitality ------------------------------------

def test_regular_elements_and_units_match_element_scans(instances):
    """The regular elements are the units of a unital ring and there are
    none otherwise; `unit_group` lists them in element order."""
    for inst in instances:
        ring = inst.ring
        regular, units = regular_and_unit_scan(ring)
        assert regular == (units if ring.is_unital else set()), ring.name
        assert unit_group(ring) == sorted(regular), ring.name
        assert regular_elements_quotient(ring) == (
            "equals-ring" if ring.is_unital else "degenerate-undefined"), ring.name


def _escaping_instance():
    """F2 × (Z/3 with zero products) under x ↦ (x₁, −x₂): R has no identity
    and R^G ≅ F2 has one, so R^G's unit escapes."""
    ring = direct_product([cyclic_ring(2), cyclic_ring(3, 0)], name="f2xz3_c0")
    gens = (RingAutomorphism(ring, [(1, 0), (0, 2)]),)
    return Instance("f2xz3_c0", ring, groups.close_group(list(gens), ring=ring),
                    "neg2", gens, "hand")


def _goldie_by_scan(ctx):
    """(status, witness) of COR_A8's goldie clause from element scans: the
    regular elements of R^G whose images in R are not regular escape.  A
    ring has a regular element iff it is unital, so that is when its
    quotient ring is the ring itself."""
    image = ctx.fixed_image()
    reg_r, _ = regular_and_unit_scan(ctx.ring)
    reg_s, _ = regular_and_unit_scan(image.ring)
    escaping = sorted(s for s in reg_s if image.from_image(s) not in reg_r)
    if escaping:
        return "fails", {"escaping_regular": [list(s) for s in escaping]}
    status = {True: "equals-ring", False: "degenerate-undefined"}
    return "holds", {"ring_quotient": status[bool(reg_r)],
                     "fixed_quotient": status[bool(reg_s)]}


def test_cor_a8_goldie_clause_matches_element_scans(instances):
    failing = []
    for inst in instances + [_probe()[0], _escaping_instance()]:
        ctx = inst.context()
        goldie = next(c for c in check("COR_A8", ctx, CAPS).conclusion if c.cond == "goldie")
        assert (goldie.status, goldie.witness) == _goldie_by_scan(ctx), inst.name
        if goldie.status == "fails":
            failing.append((inst.name, goldie.witness["escaping_regular"]))
    # the zero fixed ring of zm_f4 is unital, with 1 = 0
    assert ("zm_f4", [[]]) in failing and ("composite_s3", [[1]]) in failing
    assert failing[-1] == ("f2xz3_c0", [[1]])


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
