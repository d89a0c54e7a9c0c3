"""Under G = 1 the ideal correspondence is the identity, and five scans
decide their result from it (`GActionContext`, whose docstring holds the
proofs): the proper-splitting scan, the trace scan, the C6 scan, LEM_B6 and
the udim clause.

Each shortcut is held to the loop it skips: on a G = 1 context with
`trivial` set to False the general loops run, and all 18 checks must give
the same report JSON, unmasked and under the benchmark's masks, on the
named catalog, `random_instances(100, s)` for two seeds, the ladder's
F2[S3] and three rings whose fixed ring is a copy in other coordinates
(Z/2 × Z/5 → Z/10, Z/3 × Z/4 → Z/12 and a zero ring on Z/2 × Z/2 × Z/3).  The comparison is repeated under
caps that force each capped branch: a cut lattice, a sampled lattice, a
small module cap and a sampled udim certificate.  A second test counts the
calls the shortcuts save.
"""

import json
from pathlib import Path

import pytest

from ringinv import theorems
from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances
from ringinv.groups import trivial_group
from ringinv.invariants import GActionContext
from ringinv.radicals import exact_lattice, exhaustive_ideals, uniform_dimension
from ringinv.ring_core import LEFT, copy_source, cyclic_ring, direct_product, zero_mult_ring
from ringinv.theorems import THEOREM_IDS, check, rebuild_context

from test_ladder import ladder_instances

CAPS = Caps()
SEEDS = (20260808, 20260909)
MASKS = frozenset(json.loads(
    (Path(__file__).resolve().parents[1] / "ringbench" / "masks.json").read_text()))


def copy_rings():
    """Rings whose R^G under G = 1 is a copy in Smith coordinates; the zero
    ring on Z/2 × Z/2 × Z/3 has ideals that are not principal."""
    return [direct_product([cyclic_ring(2), cyclic_ring(5)], name="z2xz5"),
            direct_product([cyclic_ring(3), cyclic_ring(4)], name="z3xz4"),
            zero_mult_ring((2, 2, 3), name="zm_2x2x3")]


def catalog_rings():
    return [inst.ring for inst in named_instances()] + copy_rings()


def all_rings():
    out = catalog_rings()
    out += [inst.ring for inst in ladder_instances() if inst.name == "f2_s3"]
    for seed in SEEDS:
        out += [inst.ring for inst in random_instances(100, seed)[0]]
    return out


def trivial_context(ring) -> GActionContext:
    return GActionContext(ring, trivial_group(ring), group_name="trivial")


def differences(rings, caps: Caps):
    """(ring, theorem, masked) of every check whose report JSON differs
    between a G = 1 context and a cold rebuild of it that runs the general
    loops; each pair is checked unmasked, then under the masks."""
    out = []
    for ring in rings:
        fast = trivial_context(ring)
        slow = rebuild_context(fast)
        slow.trivial = False
        assert fast.trivial
        for masks in ((), MASKS):
            for theorem in THEOREM_IDS:
                if (check(theorem, fast, caps, masks, seed=7).as_json()
                        != check(theorem, slow, caps, masks, seed=7).as_json()):
                    out.append((ring.name, theorem, bool(masks)))
    return out


def test_shortcuts_give_the_general_reports():
    assert differences(all_rings(), CAPS) == []


def caps_rings():
    return catalog_rings() + [inst.ring for inst in random_instances(100, SEEDS[0])[0]]


def _copies():
    """(R, S) for the copy rings S of the caps tests' rings."""
    out = []
    for ring in caps_rings():
        image = trivial_context(ring).fixed_image().ring
        if copy_source(image) is not None:
            out.append((ring, image))
    return out


def _cut(ring, image, caps):
    return exact_lattice(ring, caps) and exhaustive_ideals(ring, LEFT, caps) is None


def _sampled(ring, image, caps):
    return not exact_lattice(ring, caps)


def _module_capped(ring, image, caps):
    return (exhaustive_ideals(ring, LEFT, caps) is not None
            and ring.order > caps.module_order)


def _udim_sampled_apart(ring, image, caps):
    """R's certificate is sampled, and the one drawn on S differs."""
    cert = uniform_dimension(ring, LEFT, caps)
    return (cert.maximality == "capped"
            and uniform_dimension(image, LEFT, caps).value != cert.value)


# caps that force each capped branch of the shortcuts, with a test that the
# branch is reached on some copy ring
CAPPED_BRANCHES = {
    "ideal_count": (Caps(ideal_count=3), _cut),
    "exhaustive_ideal_order": (Caps(exhaustive_ideal_order=8), _sampled),
    "module_order": (Caps(module_order=4), _module_capped),
    "udim_exhaustive_order": (Caps(udim_exhaustive_order=4), _udim_sampled_apart),
}


@pytest.mark.parametrize("branch", sorted(CAPPED_BRANCHES))
def test_shortcuts_give_the_general_reports_under_caps(branch):
    caps, reached = CAPPED_BRANCHES[branch]
    copies = _copies()
    assert any(reached(ring, image, caps) for ring, image in copies), branch
    assert differences(caps_rings(), caps) == []


def test_shortcuts_make_no_correspondence_calls(monkeypatch):
    """A G = 1 pass of all 18 checks on the catalog and the copy rings makes
    no `_length_comparison` or `extend` call, takes no trace in C1_5 or N2
    and memoizes no trace image; it runs no `uniform_dimension` on a copy S
    whose source certificate is exhaustive.  The traces left are BI_1_4's
    whole-ring trace image and COR_C8's averaging idempotent, outside the
    five scans."""
    calls, current = [], [None]

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, current[0], args))
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(theorems, "_length_comparison",
                        counted("length", theorems._length_comparison))
    monkeypatch.setattr(GActionContext, "extend", counted("extend", GActionContext.extend))
    monkeypatch.setattr(GActionContext, "trace", counted("trace", GActionContext.trace))
    monkeypatch.setattr(theorems, "uniform_dimension",
                        counted("udim", theorems.uniform_dimension))
    copies = 0
    for ring in catalog_rings():
        ctx = trivial_context(ring)
        for theorem in THEOREM_IDS:
            current[0] = theorem
            check(theorem, ctx, CAPS, seed=7)
        assert not [key for key in ctx._cache if key[0] == "trace_image"], ring.name
        copies += ctx.fixed_image().ring is not ring
    assert copies == 3
    assert not [c for c in calls if c[0] in ("length", "extend")]
    assert {theorem for name, theorem, _ in calls if name == "trace"} <= {"BI_1_4", "COR_C8"}
    on_copies = [args for name, _, args in calls if name == "udim"
                 and copy_source(args[0]) is not None
                 and uniform_dimension(copy_source(args[0])[0], args[1],
                                       args[2]).maximality == "exhaustive"]
    assert on_copies == []
    # the general loops make each of these calls on the same rings
    calls.clear()
    for ring in copy_rings():
        ctx = trivial_context(ring)
        ctx.trivial = False
        for theorem in ("LEM_B6", "COR_A8"):
            current[0] = theorem
            check(theorem, ctx, CAPS, seed=7)
    assert {name for name, _, _ in calls} == {"length", "extend", "udim"}


def test_only_the_trivial_group_sets_the_flag():
    for inst in named_instances():
        assert inst.context().trivial == (inst.group.order == 1), inst.name
