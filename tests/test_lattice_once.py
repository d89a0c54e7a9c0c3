"""One exhaustive ideal lattice per ring and side, and the facts read off it.

When a sided ideal lattice is exhaustive, its join closure also gives the
colength of every member, its atoms are the members of length 1, and the
G-invariant ideals are the members every g in G maps into themselves.  Each
of these is compared here with the reference it replaced on the exact path:
`chain_length` for colengths, `minimal_closures` for atoms and the per-orbit
join closure (`oracles.per_orbit_invariant_ideals`) for invariant lattices,
on the named catalog, `random_instances(100, s)` for two seeds, the ladder
rings and M2(F5) under conjugation by diag(2, 1) with the caps raised to
|R|.  The report bytes of that exact path are pinned on M2(F5) and M2(F7).
Sampled and capped lattices keep the cover climbs, `minimal_closures` and
the per-orbit closure, and their report bytes.
"""

import hashlib
import json

import pytest

from ringinv import groups, radicals, ring_core
from ringinv.caps import Caps
from ringinv.catalog import Instance, named_instances, random_instances
from ringinv.invariants import GActionContext, inner_automorphism
from ringinv.radicals import enumerate_ideals, minimal_ideals, quotient_length
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    chain_length,
    cyclic_ring,
    generated_ideal,
    matrix_ring,
    minimal_closures,
)
from ringinv.theorems import THEOREM_IDS, check

from oracles import per_orbit_invariant_ideals
from test_ladder import ladder_instances

CAPS = Caps()
SEEDS = (20260808, 20260909)


def _probe(p=5, a=2):
    """(M2(F_p) under conjugation by diag(a, 1), the caps raised to |R|),
    M2(F5) under diag(2, 1) by default."""
    ring = matrix_ring(cyclic_ring(p), 2, name=f"m2_f{p}")
    gens = (inner_automorphism(ring, (a, 0, 0, 1)),)
    inst = Instance(f"m2_f{p}", ring, groups.close_group(list(gens), ring=ring),
                    "diag", gens, "probe")
    return inst, CAPS.updated(exhaustive_ideal_order=ring.order,
                              udim_exhaustive_order=ring.order, module_order=ring.order)


@pytest.fixture(scope="module")
def cases():
    """(instance, caps): the catalog, two random sets and the ladder at the
    default caps, and the probe."""
    insts = named_instances()
    for seed in SEEDS:
        insts.extend(random_instances(100, seed)[0])
    return [(inst, CAPS) for inst in insts + ladder_instances()] + [_probe()]


def _close(ring, side):
    return lambda x: generated_ideal(ring, [x], side).sub


def _forbid(monkeypatch, *targets):
    """Make each (owner, name) raise when called."""
    for owner, name in targets:
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called on an exhaustive lattice")
        monkeypatch.setattr(owner, name, refuse)


CLIMBS = ((radicals, "cover"), (ring_core, "cover"), (radicals, "minimal_closures"),
          (GActionContext, "invariant_ideal_from"))


def _rings(inst):
    """The ring of an instance and its fixed ring, whose lattices LEM_B6
    and LEM_C6 read."""
    return inst.ring, GActionContext(inst.ring, inst.group).fixed_image().ring


# -- colengths and atoms --------------------------------------------------------------

def test_lattice_colengths_match_chain_lengths(cases, monkeypatch):
    exhaustive_probe = False
    for inst, caps in cases:
        for ring in _rings(inst):
            for side in (LEFT, RIGHT):
                ideals, exhaustive = enumerate_ideals(ring, side, caps)
                if not exhaustive:
                    continue
                exhaustive_probe = exhaustive_probe or inst.provenance == "probe"
                with monkeypatch.context() as patched:
                    _forbid(patched, *CLIMBS)
                    lengths = [quotient_length(ring, side, i.sub, caps) for i in ideals]
                assert lengths == [chain_length(i.sub, _close(ring, side))
                                   for i in ideals], (ring.name, side)
    assert exhaustive_probe


def test_lattice_atoms_match_minimal_closures(cases, monkeypatch):
    for inst, caps in cases:
        for ring in _rings(inst):
            for side in (LEFT, RIGHT):
                if not enumerate_ideals(ring, side, caps)[1]:
                    continue
                with monkeypatch.context() as patched:
                    _forbid(patched, *CLIMBS)
                    atoms = minimal_ideals(ring, side, caps)
                want = minimal_closures(ring.additive, _close(ring, side))
                assert [(a.side, a.sub) for a in atoms] == [(side, s) for s in want], (
                    ring.name, side)


# -- invariant lattices ---------------------------------------------------------------

def test_invariant_lattices_match_the_per_orbit_closure(cases, monkeypatch):
    nontrivial = 0
    for inst, caps in cases:
        ctx = GActionContext(inst.ring, inst.group)
        for side in (LEFT, RIGHT):
            filtered = enumerate_ideals(inst.ring, side, caps)[1]
            nontrivial += filtered and inst.group.order > 1
            with monkeypatch.context() as patched:
                if filtered:
                    _forbid(patched, (GActionContext, "invariant_ideal_from"))
                ideals, exhaustive = ctx.invariant_ideals(side, caps)
            want, want_exhaustive = per_orbit_invariant_ideals(ctx, side, caps)
            assert exhaustive == want_exhaustive, (inst.name, side)
            assert [(i.side, i.key) for i in ideals] == [
                (side, i.key) for i in want], (inst.name, side)
    assert nontrivial > 40


def test_exhaustive_check_path_makes_no_climbs(monkeypatch):
    """All 18 statements on the named catalog and M2(F5) under diag(2, 1),
    every lattice exhaustive, with cover searches, element-wise atoms and
    per-orbit closures made to raise."""
    _forbid(monkeypatch, *CLIMBS)
    for inst, caps in [(inst, CAPS) for inst in named_instances()] + [_probe()]:
        ctx = GActionContext(inst.ring, inst.group)
        for theorem in THEOREM_IDS:
            check(theorem, ctx, caps, (), seed=0)


def _digest(reports) -> str:
    payload = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("p, a, digest", [
    (5, 2, "9f97478a70bd7046bcc687ba5d29be12e2587ed1cba7a69cdfe18f614345554a"),
    (7, 3, "1bd502de0b325cf66b9aad0631ee20bec2b127e29da2e468cd491f51fac6404a"),
])
def test_exact_probe_reports_keep_their_bytes(p, a, digest):
    """All 18 statements on M2(F_p) under diag(a, 1) with every lattice
    exact: 12 verified and 6 vacuous on both probes."""
    inst, caps = _probe(p, a)
    ctx = inst.context()
    reports = [check(theorem, ctx, caps, (), seed=0).as_json() for theorem in THEOREM_IDS]
    verdicts = [r["verdict"] for r in reports]
    assert (verdicts.count("verified"), verdicts.count("vacuous")) == (12, 6)
    assert _digest(reports) == digest


# -- sampled and capped lattices keep their paths and bytes -----------------------------

FALLBACK_CAPS = Caps(ideal_count=4, exhaustive_ideal_order=8, udim_exhaustive_order=8)
COUNT_CAPPED = ("zm_f4", "composite_s3")   # full lattice over ideal_count, invariant not
ORDER_CAPPED = ("zm_f9", "m2f2")           # above exhaustive_ideal_order


def test_fallback_cases_take_the_fallback_paths():
    for inst in named_instances():
        if inst.name not in COUNT_CAPPED + ORDER_CAPPED:
            continue
        ctx = GActionContext(inst.ring, inst.group)
        for side in (LEFT, RIGHT):
            full, full_exhaustive = enumerate_ideals(inst.ring, side, FALLBACK_CAPS)
            inv, inv_exhaustive = ctx.invariant_ideals(side, FALLBACK_CAPS)
            assert not full_exhaustive, inst.name
            assert inv_exhaustive == (inst.name in COUNT_CAPPED), inst.name
            want, want_exhaustive = per_orbit_invariant_ideals(ctx, side, FALLBACK_CAPS)
            assert (inv_exhaustive, [i.key for i in inv]) == (
                want_exhaustive, [i.key for i in want]), inst.name


def test_fallback_check_reports_keep_their_bytes():
    """All 18 statements under caps where every instance's full lattice is
    capped by count or sampled by order; the digest was taken when every
    colength climbed covers, every atom came from `minimal_closures` and
    every invariant lattice from the per-orbit closure."""
    reports = []
    for inst in named_instances():
        if inst.name in COUNT_CAPPED + ORDER_CAPPED:
            ctx = inst.context()
            reports.extend(check(theorem, ctx, FALLBACK_CAPS, (), seed=0).as_json()
                           for theorem in THEOREM_IDS)
    assert _digest(reports) == (
        "d90b568aef2949c68893fd225312ed54a9cf4cdd288c0aa016ca8c3e23e57dd8")
