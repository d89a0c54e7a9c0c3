"""Each ring's additive group holds one Subgroup object per Hermite key and
memoizes the spans taken on it (`ring_core.AdditiveGroup.subgroup`,
`Subgroup.extend`).

On the named catalog, a seeded random sample and the scale ladder: every
subgroup the constructors and operations return is the object interned for
its key; every span in a group's table has the key that a fresh
`lattices.hermite_form` of the union gives; `extend` returns the subgroup
itself exactly when nothing is added; and the tables never cross rings, so
a rebuilt context and an unpickled ring start with tables of their own.
"""

import itertools
import pickle
import random

import pytest

from ringinv.caps import DEFAULT_CAPS
from ringinv.catalog import named_instances, random_instances
from ringinv.lattices import hermite_form
from ringinv.radicals import enumerate_ideals
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    TWOSIDED,
    AdditiveMap,
    Subgroup,
    generated_ideal,
    validate_ring,
)
from ringinv.theorems import THEOREM_IDS, check, rebuild_context

from test_ladder import ladder_instances


@pytest.fixture(scope="module")
def checked():
    """Fresh named and random instances with all 18 theorems checked on
    each, so their groups' tables hold every span a check takes."""
    instances = named_instances() + random_instances(40, 20260808)[0]
    for inst in instances:
        for theorem in THEOREM_IDS:
            check(theorem, inst.context(), DEFAULT_CAPS, (), seed=0)
    return instances


@pytest.fixture(scope="module")
def ladder():
    return ladder_instances()


def _interned(sub: Subgroup, group) -> bool:
    return sub.group is group and group.subgroup(sub.key) is sub


def _sample(ring, count: int, seed: int):
    """Up to `count` elements of `ring`: the generators, then a seeded draw."""
    rng = random.Random(seed)
    draw = [tuple(rng.randrange(d) for d in ring.cyclic_orders) for _ in range(count)]
    return list(ring.generators()) + draw


def _operations(ring, seed: int):
    """(name, subgroup) for each result of the subgroup constructors and
    operations on a sample of `ring`'s elements."""
    group = ring.additive
    elems = _sample(ring, 6, seed)
    subs = [("zero", Subgroup.zero(group)),
            ("whole", Subgroup.from_generators(group, group.generators))]
    subs += [("from_generators", Subgroup.from_generators(group, [x])) for x in elems]
    subs += [("from_generators", Subgroup.from_generators(group, [x, y]))
             for x, y in zip(elems, elems[1:])]
    subs += [(f"ideal {side}", generated_ideal(ring, [x], side).sub)
             for x in elems[:3] for side in (LEFT, RIGHT, TWOSIDED)]
    subs += [("kernel", AdditiveMap(group, [ring.mul(x, g) for g in ring.generators()],
                                    group.relations).kernel) for x in elems]
    out = list(subs)
    for (_, a), (_, b) in itertools.combinations(subs, 2):
        out += [("join", a.join(b)), ("intersect", a.intersect(b)),
                ("extend", a.extend(b.basis))]
    return out


def test_every_result_is_the_interned_object(checked, ladder):
    for inst in checked + ladder:
        group = inst.ring.additive
        for name, sub in _operations(inst.ring, 7):
            assert _interned(sub, group), (inst.name, name)


def test_every_table_entry_is_interned_and_spans_its_union(checked, ladder):
    """The span table's key of each entry is what a from-scratch Hermite form
    of the old key and the generators gives: the oracle with no memo."""
    spans = 0
    for inst in checked + ladder:
        _operations(inst.ring, 11)
        group = inst.ring.additive
        for key, sub in group._subgroups.items():
            assert sub.key is key and sub.group is group, inst.name
        for (key, gens), sub in group._spans.items():
            assert _interned(sub, group), inst.name
            assert sub.key == hermite_form(list(key) + list(gens), group.rank), (
                inst.name, key, gens)
            spans += 1
    assert spans > 3000


def test_extend_returns_self_exactly_when_nothing_is_added(checked, ladder):
    for inst in checked + ladder:
        ring, group = inst.ring, inst.ring.additive
        elems = _sample(ring, 5, 3)
        subs = [sub for _, sub in _operations(ring, 3)][:12]
        for sub in subs:
            members = sub.elements()
            for gens in [[x] for x in elems] + [list(p) for p in zip(elems, elems[2:])]:
                inside = all(group.reduce(g) in members for g in gens)
                assert (sub.extend(gens) is sub) == inside, (inst.name, sub, gens)
            assert sub.extend(sub.basis) is sub


def test_a_rebuilt_context_shares_no_subgroup_with_the_original(checked):
    for inst in checked[:30]:
        ctx = inst.context()
        ring = ctx.ring
        original = {id(s) for s in ring.additive._subgroups.values()}
        # a ring validated from its raw data starts with tables of its own:
        # empty, or the kernel of the identity solve when it has no identity
        fresh = validate_ring(ring.cyclic_orders, ring.mul_table, unit_hint=ring.unit)
        if ring.is_unital:
            assert fresh.additive._subgroups == {} and fresh.additive._spans == {}
        assert not original & {id(s) for s in fresh.additive._subgroups.values()}
        rebuilt = rebuild_context(ctx)
        group = rebuilt.ring.additive
        assert group is not ring.additive and group == ring.additive
        assert not original & {id(s) for s in group._subgroups.values()}, inst.name
        lattices = []
        for side in (LEFT, RIGHT, TWOSIDED):
            for c in (ctx, rebuilt):
                lattices.append([i.sub for i in enumerate_ideals(c.ring, side)[0]]
                                + [i.sub for i in c.invariant_ideals(side)[0]])
        for mine, theirs in zip(lattices[::2], lattices[1::2]):
            assert mine == theirs, inst.name
            assert not {id(s) for s in mine} & {id(s) for s in theirs}, inst.name
            assert all(_interned(s, group) for s in theirs), inst.name


def test_a_pickled_ring_comes_back_with_empty_tables(checked):
    for inst in checked[:20]:
        ring = inst.ring
        assert ring.additive._subgroups
        copy = pickle.loads(pickle.dumps(ring))
        assert copy.additive == ring.additive
        assert copy.additive._subgroups == {} and copy.additive._spans == {}
        # a subgroup pickled with its group is interned on the copy
        sub = Subgroup.from_generators(ring.additive, ring.generators()[:1])
        group, back = pickle.loads(pickle.dumps((ring.additive, sub)))
        assert group._subgroups == {back.key: back} and back.group is group
        assert back == sub and back is not sub
