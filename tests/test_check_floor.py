"""The per-check floor: one-pass status folds, report JSON by exact type,
clause facts held on the action context, and the trivial-group shortcuts.

The folds and the JSON form are held to the forms they replace
(`tests/oracles.py`); the memos are held to fresh contexts, with the masks
that mutate clauses run in between; the shortcuts under G = 1 (the
interned whole subgroup, the skipped closure loop, the splitting with a
zero complement) are held to the general paths they skip.
"""

import itertools
import json
import pickle
from pathlib import Path

import pytest

from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances
from ringinv.groups import fixed_subgroup, trivial_group
from ringinv.invariants import GActionContext, _make_splitting, enumerate_splittings
from ringinv.ring_core import Ideal, Subgroup, SubringView
from ringinv.theorems import (
    CAPPED,
    DOMINATED,
    FAILS,
    HOLDS,
    THEOREM_IDS,
    Clause,
    _hyp_status,
    _worst,
    check,
    rebuild_context,
    to_jsonable,
)

from oracles import (
    closure_holds,
    comprehension_hyp_status,
    isinstance_to_jsonable,
    severity_worst,
    solved_splitting,
    spanned_fixed_subgroup,
)
from test_ladder import ladder_instances

CAPS = Caps()
STATUSES = (HOLDS, DOMINATED, CAPPED, FAILS)
MASKS = frozenset(json.loads(
    (Path(__file__).resolve().parents[1] / "ringbench" / "masks.json").read_text()))


def _fresh(status: str) -> str:
    """An equal status string that is another object, so that a fold that
    returns the wrong one of two equal statuses shows up under `is`."""
    copy = "".join(list(status))
    assert copy == status and copy is not status
    return copy


# -- the folds ------------------------------------------------------------------------

def test_worst_is_the_first_maximal_status():
    """Over every status tuple of length <= 4, `_worst` returns the very
    object the `max` fold returns: the first status of the highest rank."""
    for n in range(5):
        for combo in itertools.product(STATUSES, repeat=n):
            statuses = [_fresh(s) for s in combo]
            assert _worst(iter(statuses)) is severity_worst(statuses), combo
    assert _worst([]) == HOLDS
    with pytest.raises(KeyError):
        _worst([HOLDS, "unknown"])


# one clause of each kind the hypothesis fold tells apart
CONDS = ("1", "alt1", "alt2", "alt2.1(p=2)", "alt3")


def test_hyp_status_matches_the_comprehensions():
    """Every list of up to three clauses, each a plain, alt1, alt2 or other
    alt condition with every status, masked or not, gets the very status
    object the three comprehensions give."""
    kinds = [(cond, status, masked) for cond in CONDS for status in STATUSES
             for masked in (False, True)]
    count = 0
    for n in range(4):
        for combo in itertools.product(kinds, repeat=n):
            hyps = [Clause(cond, "text", _fresh(status), masked=masked)
                    for cond, status, masked in combo]
            assert _hyp_status(hyps) is comprehension_hyp_status(hyps), combo
            count += 1
    assert count == 1 + 40 + 40 ** 2 + 40 ** 3


# -- report JSON ----------------------------------------------------------------------

def _typed(value):
    """`value` with every scalar tagged by its type: `True == 1` in Python,
    so an untagged comparison would miss a bool that became an int."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value).__name__, value


def test_to_jsonable_keeps_every_type():
    ring = named_instances()[0].ring
    sub = Subgroup.from_generators(ring.additive, ring.generators())
    values = [None, True, False, 0, 7, "s", [True, 1, (2, False)], {1: True, "k": (None,)},
              sub, Ideal(ring, "left", sub)]
    for value in values:
        assert _typed(to_jsonable(value)) == _typed(isinstance_to_jsonable(value)), value
        assert json.dumps(to_jsonable(value)) == json.dumps(isinstance_to_jsonable(value))
    with pytest.raises(TypeError):
        to_jsonable({"x": [object()]})
    with pytest.raises(TypeError):
        to_jsonable(1.5)


@pytest.mark.parametrize("masks", [(), MASKS], ids=["unmasked", "masked"])
def test_to_jsonable_matches_the_isinstance_chain_on_catalog_reports(masks):
    """Every witness of every report on the named catalog, masked and
    unmasked, has the same typed JSON form on both paths."""
    seen = 0
    for inst in named_instances():
        ctx = inst.context()
        for theorem in THEOREM_IDS:
            report = check(theorem, ctx, CAPS, masks, seed=1)
            for clause in report.hypotheses + report.conclusion:
                new, old = to_jsonable(clause.witness), isinstance_to_jsonable(clause.witness)
                assert _typed(new) == _typed(old), (inst.name, theorem, clause.cond)
                seen += clause.witness is not None
    assert seen > 100


# -- clause facts on the context --------------------------------------------------------

def _guard_instances():
    return named_instances() + random_instances(40, 20260808)[0]


def test_memoized_facts_give_fresh_context_reports_around_masks():
    """On one context per instance, all 18 checks run unmasked, then with
    the benchmark's masks, then unmasked again; every report's JSON equals
    the same check on a context rebuilt cold, and no `Clause` object
    appears in two reports."""
    for inst in _guard_instances():
        ctx = inst.context()
        fresh = {}
        clause_ids = set()
        reports = []
        for masks in ((), MASKS, ()):
            for theorem in THEOREM_IDS:
                report = check(theorem, ctx, CAPS, masks, seed=3)
                reports.append(report)
                key = (theorem, bool(masks))
                if key not in fresh:
                    fresh[key] = check(theorem, rebuild_context(ctx), CAPS, masks,
                                       seed=3).as_json()
                assert report.as_json() == fresh[key], (inst.name, theorem, bool(masks))
                ids = {id(c) for c in report.hypotheses + report.conclusion}
                assert not ids & clause_ids, (inst.name, theorem)
                clause_ids |= ids


def test_pickled_context_carries_its_fixed_image_slot():
    """The fixed-ring image travels in the context cache, as to a `--jobs`
    worker, and the unpickled context gives the same report bytes."""
    for inst in named_instances() + random_instances(10, 20260808)[0]:
        ctx = inst.context()
        image = ctx.fixed_image()
        assert ctx.fixed_image() is image and ctx._cache["fixed_image"] is image
        copy = pickle.loads(pickle.dumps(inst)).context()
        assert copy._cache["fixed_image"].ring.order == image.ring.order
        for theorem in THEOREM_IDS:
            assert (check(theorem, copy, CAPS, (), seed=5).as_json()
                    == check(theorem, ctx, CAPS, (), seed=5).as_json()), (inst.name, theorem)


def test_order_inverse_and_trace_images_are_solved_once(monkeypatch):
    """The inverse of |G|·1 is one solve per context for the three
    invertible-order clauses and the averaging splitting, and C1_5 and N2
    read one trace image per invariant ideal."""
    from ringinv import invariants

    solves, traces = [], []
    real_inverse, real_trace = invariants.inverse, GActionContext.trace_image
    monkeypatch.setattr(invariants, "inverse", lambda ring, u: solves.append(u)
                        or real_inverse(ring, u))
    monkeypatch.setattr(GActionContext, "trace_image", lambda self, xs=None: traces.append(
        None if xs is None else Subgroup.from_generators(self.ring.additive, xs).key)
        or real_trace(self, xs))
    for inst in named_instances():
        solves.clear()
        traces.clear()
        ctx = GActionContext(inst.ring, inst.group)
        for theorem in ("RAD_1_4", "LEVITZKI", "COR_C8", "C1_5", "N2"):
            check(theorem, ctx, CAPS)
        assert len(solves) == (1 if inst.ring.is_unital else 0), inst.name
        assert len(traces) == len(set(traces)), inst.name


# -- the trivial-group shortcuts -------------------------------------------------------------

def _shortcut_instances():
    out = named_instances() + ladder_instances()
    for seed in (20260808, 20260909):
        out += random_instances(100, seed)[0]
    return out


def test_trivial_group_shortcuts_match_the_general_paths():
    """On the named catalog, 100 random instances for two seeds and the
    ladder: the fixed subgroup (under each instance's group and under G = 1)
    is the very object the span-started meet gives; a whole `SubringView`
    passes the closure loop it skips; and the identity splitting has the
    projection and complement of the graph solve."""
    trivial = 0
    for inst in _shortcut_instances():
        ring = inst.ring
        whole = ring.additive.whole
        assert whole is Subgroup.from_generators(ring.additive, ring.generators())
        assert whole.size == ring.order
        for group in (inst.group, trivial_group(ring)):
            fixed = fixed_subgroup(ring, group.elements)
            assert fixed is spanned_fixed_subgroup(ring, group.elements), inst.name
        assert fixed is whole
        assert SubringView(ring, whole).sub is whole and closure_holds(ring, whole)
        zero = Subgroup.zero(ring.additive)
        sd = _make_splitting(ring, whole, zero)
        assert (sd.fixed, sd.complement, sd.projection) == solved_splitting(ring, whole, zero)
        ctx = GActionContext(ring, trivial_group(ring))
        assert ctx.fixed.sub is whole
        [identity], exhaustive = enumerate_splittings(ctx, CAPS)
        assert exhaustive and identity.projection == sd.projection
        trivial += inst.group.order == 1
    assert trivial > 50


def test_pickled_group_drops_its_whole_subgroup():
    """`whole` points into the intern table, which a pickled group drops,
    so it is dropped too and made again on the copy's own table."""
    ring = named_instances()[0].ring
    whole = ring.additive.whole
    copy = pickle.loads(pickle.dumps(ring.additive))
    assert "whole" not in copy.__dict__ and not copy._subgroups
    assert copy.whole is not whole and copy.whole.key == whole.key
    assert copy.whole is copy.subgroup(whole.key)
