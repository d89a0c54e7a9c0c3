"""One validation per instance on the counterexample re-check path, and the
cheaper proofs of `ring_core`.

`theorems.rebuild_context` validates a raw datum in full once and records
the validated data on the original ring; later rebuilds of the datum make
fresh objects from that record.  On a masked catalog run the rebuilt
contexts share no object with the original or with each other,
`validate_ring` runs once per instance and never for a coordinate ring, and
a changed datum is validated afresh.  Also here: `validate_ring` against
the element-wise validation in `tests/oracles.py`, the diagonal primary
components against their spans, and a wrong product in a coordinate ring's
table caught by `Coordinates.check`.
"""

import json
from pathlib import Path

import pytest

from ringinv import catalog, ring_core, theorems
from ringinv.caps import DEFAULT_CAPS
from ringinv.catalog import named_instances, random_instances
from ringinv.groups import InvalidAutomorphism, trivial_group
from ringinv.invariants import GActionContext
from ringinv.radicals import jacobson_radical
from ringinv.ring_core import (
    TWOSIDED,
    Ideal,
    NotUnital,
    RingError,
    Subgroup,
    SubringView,
    cyclic_ring,
    factorize,
    quotient_by_ideal,
    validate_ring,
)
from ringinv.theorems import THEOREM_IDS, counterexample_search, rebuild_context

from oracles import element_validated_ring
from test_ladder import ladder_instances

SEEDS = (20260808, 20260909)
MASKS = Path(__file__).resolve().parents[1] / "ringbench" / "masks.json"


# -- primary components read off the cyclic orders ----------------------------------

def test_primary_components_are_the_spans_of_the_scaled_generators():
    instances = named_instances()
    for seed in SEEDS:
        instances += random_instances(100, seed)[0]
    compared = 0
    for inst in instances:
        ring = inst.ring
        e = ring.exponent
        spans = [(p, Subgroup.from_generators(
            ring.additive, [ring.smul(e // p ** a, g) for g in ring.generators()]).key)
            for p, a in sorted(factorize(e).items())]
        components = ring.primary_components()
        assert [(p, sub.key) for p, sub in components] == spans, inst.name
        assert all(ring.additive.subgroup(sub.key) is sub for _, sub in components)
        compared += len(components)
    assert compared > 200


# -- validate_ring against the element-wise reference ----------------------------------

def _outcome(validate, orders, table, hint):
    """What a validation gives: the ring's table and identity, or the error
    with the pair or triple it names."""
    try:
        ring = validate(orders, table, unit_hint=hint)
    except RingError as exc:
        return (type(exc).__name__, getattr(exc, "triple", None),
                getattr(exc, "pair", None), str(exc))
    return ("ring", ring.mul_table, ring.unit)


def _left_identity_only():
    """e1·x = x for all x but e2·e1 = 0: a left identity and no identity."""
    return (2, 2), [[(1, 0), (0, 1)], [(0, 0), (0, 0)]]


def _non_associative():
    """(e1·e1)·e2 = e2 but e1·(e1·e2) = 0."""
    return (2, 2), [[(1, 0), (0, 0)], [(0, 0), (0, 0)]], None


@pytest.fixture(scope="module")
def candidates():
    """(orders, table, hint) for every table random generation tried, kept
    or rejected, and for the named, ladder and random rings with and without
    their identity as the hint."""
    seen = []
    real = catalog.validate_ring

    def spying(orders, table, unit_hint=None, name=None):
        seen.append((orders, table, unit_hint))
        return real(orders, table, unit_hint=unit_hint, name=name)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(catalog, "validate_ring", spying)
        instances = named_instances() + ladder_instances()
        for seed in SEEDS:
            instances += random_instances(100, seed)[0]
    for inst in instances:
        ring = inst.ring
        seen.append((ring.cyclic_orders, ring.mul_table, None))
        if ring.is_unital:
            seen.append((ring.cyclic_orders, ring.mul_table, ring.unit))
    return seen


def test_validate_ring_matches_the_element_wise_oracle(candidates):
    orders, table = _left_identity_only()
    extra = [(orders, table, None), (orders, table, (1, 0)), _non_associative(),
             ((6,), [[(1,)]], (5,)), ((4, 2), [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], None)]
    verdicts = set()
    for orders, table, hint in candidates + extra:
        mine = _outcome(validate_ring, orders, table, hint)
        theirs = _outcome(element_validated_ring, orders, table, hint)
        assert mine == theirs, (orders, table, hint)
        verdicts.add(mine[0])
    assert _outcome(validate_ring, *_left_identity_only(), None) == (
        "ring", (((1, 0), (0, 1)), ((0, 0), (0, 0))), None)
    # the cases reach every verdict: a ring, and both kinds of refusal
    assert {"ring", "NonAssociative", "NotUnital"} <= verdicts


# -- one validation per instance, and cold rebuilds ------------------------------------

def _objects(ctx) -> dict:
    """id -> object for the mutable state a context holds: itself, its
    cache, fixed subring, ring, additive group and its tables, the ring's
    caches, the automorphisms with their maps, and the group."""
    ring, group = ctx.ring, ctx.group
    held = [ctx, ctx._cache, ctx.fixed, ring, ring._extra, ring._mul_cache,
            ring.additive, ring.additive._subgroups, ring.additive._spans,
            group, group._index, group.elements]
    for a in group.elements:
        held += [a, a._map]
    return {id(x): x for x in held if x is not None}


def test_a_masked_catalog_run_validates_each_instance_once(monkeypatch):
    masks = frozenset(json.loads(MASKS.read_text()))
    rebuilt, validated, coordinate = [], [], []
    real_rebuild, real_validate = theorems.rebuild_context, theorems.validate_ring

    def rebuilding(ctx):
        out = real_rebuild(ctx)
        rebuilt.append((ctx, out))
        return out

    def validating(*args, **kwargs):
        validated.append(args[0])
        return real_validate(*args, **kwargs)
    contexts = [inst.context() for inst in named_instances()]
    monkeypatch.setattr(theorems, "rebuild_context", rebuilding)
    monkeypatch.setattr(theorems, "validate_ring", validating)
    monkeypatch.setattr(ring_core, "validate_ring",
                        lambda *a, **k: coordinate.append(a) or real_validate(*a, **k))
    found = counterexample_search(THEOREM_IDS, contexts, DEFAULT_CAPS, masks, seed=0)
    monkeypatch.undo()
    originals = {id(ctx) for ctx, _ in rebuilt}
    assert found and len(rebuilt) > len(originals)
    # one full validation per instance rebuilt; none for a coordinate ring
    assert len(validated) == len(originals)
    assert coordinate == []
    # no rebuilt context shares an object with its original or another
    for ctx, out in rebuilt:
        assert not _objects(ctx).keys() & _objects(out).keys(), ctx.ring_name
    fresh = [_objects(out) for _, out in rebuilt]
    assert len(set().union(*fresh)) == sum(map(len, fresh))
    for ctx, out in rebuilt:
        assert out.ring.table_key() == ctx.ring.table_key()
        assert [a.images for a in out.group] == [a.images for a in ctx.group]


def test_a_changed_datum_is_validated_afresh(monkeypatch):
    validated = []
    real_validate = theorems.validate_ring
    monkeypatch.setattr(theorems, "validate_ring",
                        lambda *a, **k: validated.append(a) or real_validate(*a, **k))
    ring = cyclic_ring(6)
    ctx = GActionContext(ring, trivial_group(ring))
    first, second = rebuild_context(ctx), rebuild_context(ctx)
    assert len(validated) == 1
    assert first.ring is not second.ring and second.ring.unit == (1,)
    ring.unit = (5,)
    with pytest.raises(NotUnital):
        rebuild_context(ctx)
    assert len(validated) == 2
    # a changed image list is checked again, and a bad one refused
    inst = next(i for i in named_instances() if i.group.order > 1)
    ctx = inst.context()
    rebuild_context(ctx)
    moved = next(a for a in ctx.group.elements if not a.is_identity())
    moved.images = tuple(inst.ring.zero for _ in moved.images)
    with pytest.raises(InvalidAutomorphism):
        rebuild_context(ctx)


# -- a coordinate ring is proved by its isomorphism ------------------------------------

def test_a_wrong_coordinate_product_is_caught_by_the_isomorphism_check(monkeypatch):
    """Each coordinate ring's table with one product moved by a generator
    (still well defined) must fail `Coordinates.check`."""
    real = ring_core._checked_table
    tampered = []

    def moving(orders, table):
        group, reduced = real(orders, table)
        if group.rank:
            reduced[0][0] = group.add(reduced[0][0], group.generator(0))
            tampered.append(orders)
        return group, reduced
    caught = 0
    for inst in named_instances() + random_instances(100, SEEDS[0])[0]:
        ring = validate_ring(inst.ring.cyclic_orders, inst.ring.mul_table, name=inst.name)
        makers = [
            lambda: SubringView(ring, Subgroup.from_generators(
                ring.additive, inst.context().fixed.basis)).image(),
            lambda: quotient_by_ideal(ring, Ideal(ring, TWOSIDED, Subgroup.zero(ring.additive))),
            lambda: quotient_by_ideal(ring, jacobson_radical(ring)),
        ]
        for make in makers:
            tampered.clear()
            with monkeypatch.context() as m:
                m.setattr(ring_core, "_checked_table", moving)
                try:
                    image = make()
                except RingError as exc:
                    assert tampered and "do not preserve" in str(exc), inst.name
                    caught += 1
                else:
                    # R itself in its own coordinates, or a ring of order 1
                    assert not tampered, inst.name
                    assert image.ring is ring or image.ring.order == 1, inst.name
            ring._extra.clear()
    assert caught > 20
