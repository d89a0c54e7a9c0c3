"""An exact ideal lattice is the product of its primary components' lattices.

R is the direct product of its primary components R_p, so every sided ideal
of R is ⊕_p I_p with I_p a sided ideal of R in R_p, and len(R/I) is
Σ_p len(R_p/I_p).  `radicals.enumerate_ideals` closes the principal ideals
of each R_p on its own and joins one member of each; the closure over every
element of R runs only when a component lattice or the product outgrows
`caps.ideal_count`.  Each lattice is compared here with that closure
(`oracles.whole_ring_lattice`) and each colength with `chain_length`, on
the named catalog, `random_instances(100, s)` for two seeds, the ladder
rings and three hand-built rings with two or three primes; the whole-ring
closure of the engine is made to raise on an exhaustive lattice of a ring
with two or more primes, so that every such lattice comes from the product.
"""

import hashlib

import pytest

from ringinv import radicals
from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances
from ringinv.cli import main as cli_main
from ringinv.invariants import GActionContext
from ringinv.radicals import enumerate_ideals, exact_lattice, quotient_length
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    SIDES,
    TWOSIDED,
    RingError,
    Subgroup,
    chain_length,
    cyclic_ring,
    direct_product,
    generated_ideal,
    matrix_ring,
    zero_mult_ring,
)

from oracles import whole_ring_lattice
from test_ladder import ladder_instances

CAPS = Caps()
SEEDS = (20260808, 20260909)


def hand_built_rings():
    """M2(F2) × Z/3 (noncommutative: its left and right lattices differ), the
    zero ring on Z/2 × Z/2 times Z/9 (no identity), and Z/2 × Z/3 × Z/7."""
    return [
        direct_product([matrix_ring(cyclic_ring(2), 2), cyclic_ring(3)], name="m2f2xz3"),
        direct_product([zero_mult_ring((2, 2)), cyclic_ring(9)], name="zm22xz9"),
        direct_product([cyclic_ring(2), cyclic_ring(3), cyclic_ring(7)], name="z2xz3xz7"),
    ]


@pytest.fixture(scope="module")
def rings():
    """The ring and the fixed ring of every instance of the catalog, the two
    random sets and the ladder, then the hand-built rings."""
    insts = named_instances()
    for seed in SEEDS:
        insts.extend(random_instances(100, seed)[0])
    out = []
    for inst in insts + ladder_instances():
        out.append(inst.ring)
        out.append(GActionContext(inst.ring, inst.group).fixed_image().ring)
    return out + hand_built_rings()


def _primes(ring) -> int:
    return len(ring.primary_components())


def _refuse_whole_ring_closures(monkeypatch):
    """Make the engine's closure over every element of R raise when it
    finds an exhaustive lattice of a ring with two or more primes."""
    real = radicals.ideal_lattice

    def refusing(ring, side, *args, **kwargs):
        ideals, exhaustive = real(ring, side, *args, **kwargs)
        if exhaustive and _primes(ring) > 1:
            raise AssertionError(f"whole-ring closure on {ring.name} ({side})")
        return ideals, exhaustive
    monkeypatch.setattr(radicals, "ideal_lattice", refusing)


def _forbid_climbs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cover climbed on an exhaustive lattice")
    monkeypatch.setattr(radicals, "cover", refuse)


def _close(ring, side):
    return lambda x: generated_ideal(ring, [x], side).sub


def _assert_matches_whole_ring(ring, side, caps, monkeypatch) -> bool:
    """The lattice equals the whole-ring closure, member by member, with
    the same side labels and flag, and an exhaustive one has every colength
    of `chain_length` in the memo; whether it was exhaustive."""
    with monkeypatch.context() as patched:
        _refuse_whole_ring_closures(patched)
        ideals, exhaustive = enumerate_ideals(ring, side, caps)
    want, want_exhaustive = whole_ring_lattice(ring, side, caps)
    assert exhaustive == want_exhaustive, (ring.name, side)
    assert [(i.side, i.key) for i in ideals] == [(side, i.key) for i in want], (
        ring.name, side)
    if exhaustive:
        with monkeypatch.context() as patched:
            _forbid_climbs(patched)
            lengths = [quotient_length(ring, side, i.sub, caps) for i in ideals]
        assert lengths == [chain_length(i.sub, _close(ring, side)) for i in ideals], (
            ring.name, side)
    return exhaustive


def test_exact_lattices_match_the_whole_ring_closure(rings, monkeypatch):
    products = 0
    for ring in rings:
        if not exact_lattice(ring, CAPS):
            continue
        for side in (LEFT, RIGHT):
            exhaustive = _assert_matches_whole_ring(ring, side, CAPS, monkeypatch)
            products += exhaustive and _primes(ring) > 1
    assert products > 100


@pytest.mark.parametrize("index", range(3), ids=[r.name for r in hand_built_rings()])
def test_hand_built_lattices_match_the_whole_ring_closure(index, monkeypatch):
    ring = hand_built_rings()[index]
    assert _primes(ring) == (3 if ring.name == "z2xz3xz7" else 2)
    for side in SIDES:
        assert _assert_matches_whole_ring(ring, side, CAPS, monkeypatch), side


def test_noncommutative_sides_differ_and_non_ideals_raise():
    """On M2(F2) × Z/3 the left and right lattices differ, and a subgroup
    that is no sided ideal is refused, not climbed."""
    ring = hand_built_rings()[0]
    left, right = (enumerate_ideals(ring, side, CAPS)[0] for side in (LEFT, RIGHT))
    assert [i.key for i in left] != [i.key for i in right]
    e11 = tuple(int(i == 0) for i in range(ring.rank))
    sub = Subgroup.from_generators(ring.additive, [e11])
    for side in SIDES:
        with pytest.raises(RingError):
            quotient_length(ring, side, sub, CAPS)


def test_capped_products_take_the_whole_ring_closure(monkeypatch):
    """The zero ring on Z/2 × Z/2 times Z/9 has 5 · 3 ideals, 4 · 3 of them
    principal: with 5 allowed both component lattices fit and the product
    does not, so the whole-ring closure runs and is cut.  Z/2 × Z/3 × Z/7
    has 8 ideals, all principal: with 4 allowed the whole-ring closure runs
    and is exhaustive, since it finds no join outside its base, and gives
    the colengths; with 8 allowed it does not run."""
    zm22xz9, z2xz3xz7 = hand_built_rings()[1:]
    calls = []
    real = radicals.ideal_lattice

    def spying(ring, *args, **kwargs):
        calls.append(ring.name)
        return real(ring, *args, **kwargs)
    monkeypatch.setattr(radicals, "ideal_lattice", spying)
    for ring, count, want_exhaustive in ((zm22xz9, 5, False), (z2xz3xz7, 4, True)):
        caps = Caps(ideal_count=count)
        ideals, exhaustive = enumerate_ideals(ring, LEFT, caps)
        want, _ = whole_ring_lattice(ring, LEFT, caps)
        assert exhaustive == want_exhaustive, ring.name
        assert [i.key for i in ideals] == [i.key for i in want], ring.name
    assert calls == [zm22xz9.name, z2xz3xz7.name]
    assert quotient_length(z2xz3xz7, LEFT, Subgroup.zero(z2xz3xz7.additive),
                           Caps(ideal_count=4)) == 3
    assert enumerate_ideals(z2xz3xz7, TWOSIDED, Caps(ideal_count=8))[1]
    assert calls == [zm22xz9.name, z2xz3xz7.name]


# SHA-256 of `ringinv check --random 100 --seed 20260808` at a low
# `ideal_count`, taken when every lattice was the closure over every element
LOW_IDEAL_COUNT_DIGESTS = {
    4: "b034c4111228d79a4929fdcf179d21ff59afca22d23c1593642d6140d3ff4fd6",
    6: "e13bdc9e8f13b58e6731a4c9108bd6eadb52f9f4316961213a5d657030877b7d",
}


@pytest.mark.parametrize("ideal_count", sorted(LOW_IDEAL_COUNT_DIGESTS))
def test_low_ideal_count_reports_keep_their_bytes(tmp_path, monkeypatch, ideal_count):
    """At these caps some lattices of rings with two or more primes are
    products and others pass the cap and fall back to the whole-ring
    closure; the report bytes are those of the closure alone."""
    outcomes = set()
    real = radicals._product_lattice

    def spying(ring, side, caps):
        product = real(ring, side, caps)
        if _primes(ring) > 1:
            outcomes.add(product is not None)
        return product
    monkeypatch.setattr(radicals, "_product_lattice", spying)
    out = tmp_path / "report.json"
    assert cli_main(["check", "--random", "100", "--seed", "20260808",
                     "--caps", f"ideal_count={ideal_count}", "--out", str(out)]) == 0
    assert outcomes == {True, False}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        LOW_IDEAL_COUNT_DIGESTS[ideal_count])
