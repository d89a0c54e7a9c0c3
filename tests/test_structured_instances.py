"""Structured instances that exercise the less-traveled engine paths:
extended actions on unitalizations, group-ring automorphisms, inner actions
by nonabelian unit groups, and squared non-unital rings."""

from ringinv.groups import RingAutomorphism, close_group, p_normal_complement
from ringinv.invariants import GActionContext, inner_automorphism, unit_group
from ringinv.radicals import jacobson_radical
from ringinv.ring_core import (
    cyclic_ring,
    direct_product,
    group_ring,
    matrix_ring,
    unitalize,
    zero_mult_ring,
)
from ringinv.theorems import check

from oracles import background_invariants


def test_group_ring_inversion_automorphism():
    """g -> g^{-1} on C4 induces a ring automorphism of F2[C4]."""
    cayley = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    r = group_ring(cyclic_ring(2), cayley, name="f2c4")
    inv_perm = [0, 3, 2, 1]
    images = [r.generator(inv_perm[h]) for h in range(4)]
    aut = RingAutomorphism(r, images)
    assert aut.order() == 2
    ctx = GActionContext(r, close_group([aut]), group_name="inversion")
    # fixed ring contains the symmetric combinations
    assert ctx.fixed.contains((0, 1, 0, 1))
    for th in ("N2", "TH_4APR", "B5APR", "LEM_B6"):
        assert check(th, ctx).verdict != "counterexample"
    for name, ok, _ in background_invariants(ctx):
        assert ok, name


def test_unitalized_action_blocks_false_nilpotency():
    """Extending the order-6 action to the unitalization must leave the
    nilpotency statement vacuous: the unitalized ring is unital, so any
    hypothesis slip would produce a counterexample here."""
    base = zero_mult_ring((2, 2), name="zm_f4")
    ru = unitalize(base)
    assert ru.order == 8 and ru.is_unital
    exts = []
    for images in ([(0, 0, 1), (0, 1, 1)], [(0, 1, 0), (0, 1, 1)]):
        exts.append(RingAutomorphism(
            ru, [ru.generator(0)] + [im for im in images]))
    group = close_group(exts)
    assert group.order == 6
    ctx = GActionContext(ru, group, ring_name="zm_f4_unital", group_name="c6")
    report = check("N1", ctx)
    assert report.verdict == "vacuous"
    cond2 = [h for h in report.hypotheses if h.cond == "2(p=2)"]
    assert cond2 and cond2[0].status == "fails"
    power = [c for c in report.conclusion if c.cond == "power"][0]
    assert power.status == "fails"  # recorded: the unital ring is not nilpotent


def test_inner_c3_on_m2f2_levitzki():
    """Conjugation by an order-3 unit of M2(F2): the group order 3 is
    invertible in characteristic 2 and the fixed ring is the field with 4
    elements, so semisimplicity descends."""
    r = matrix_ring(cyclic_ring(2), 2, name="m2f2")
    u = (0, 1, 1, 1)  # [[0,1],[1,1]], order 3 in GL_2(F_2)
    aut = inner_automorphism(r, u)
    assert aut.order() == 3
    ctx = GActionContext(r, close_group([aut]), group_name="inner3")
    assert ctx.fixed.size == 4
    # the fixed ring is a field: every nonzero element is a unit
    img = ctx.fixed_image()
    assert len(unit_group(img.ring)) == 3
    report = check("LEVITZKI", ctx)
    assert report.verdict == "verified"
    assert check("TH_8APR", ctx).verdict == "verified"
    assert check("RAD_1_4", ctx).verdict == "verified"


def test_inner_s3_on_m2f2():
    """The full inner automorphism group of M2(F2) is nonabelian of order 6;
    its 2-complement exists and the relative trace image over the quotient
    stabilizes at a nonzero subring."""
    r = matrix_ring(cyclic_ring(2), 2, name="m2f2")
    a = inner_automorphism(r, (1, 1, 0, 1))   # order 2
    b = inner_automorphism(r, (0, 1, 1, 1))   # order 3
    group = close_group([a, b])
    assert group.order == 6
    orders = sorted(x.order() for x in group.elements)
    assert orders == [1, 2, 2, 2, 3, 3]
    n2 = p_normal_complement(group, 2)
    assert n2 is not None and n2.order == 3
    ctx = GActionContext(r, group, group_name="inner_s3")
    # fixed ring is the center {0, I}
    assert ctx.fixed.elements() == frozenset({r.zero, r.unit})
    profile = ctx.bad_primes()
    assert profile.primes == (2,)
    data = profile.data[2]
    assert data.fixed_image.ring.order == 4  # the field fixed by the 3-part
    assert data.d is None and data.d_stabilized
    report = check("N1", ctx)
    assert report.verdict == "vacuous"
    h3 = [h for h in report.hypotheses if h.cond == "3(p=2)"]
    assert h3[0].status == "fails"
    assert h3[0].witness["stabilized_nonzero"] is True


def test_squared_nonunital_ring_with_swap():
    """(2Z/8)^2 with the swap: nilpotent, prime-radical quotient zero, and
    the radical-restriction statement passes through the quotient context."""
    base = cyclic_ring(4, c=2, name="two_z8")
    r = direct_product([base, base], name="two_z8_sq")
    swap = RingAutomorphism(r, [r.generator(1), r.generator(0)])
    ctx = GActionContext(r, close_group([swap]), group_name="swap")
    assert jacobson_radical(r).size == r.order
    for th in ("TH_4APR", "B5APR", "MONT_1_7", "N2"):
        report = check(th, ctx)
        assert report.verdict != "counterexample", th
    assert check("TH_4APR", ctx).verdict == "verified"
    for name, ok, _ in background_invariants(ctx):
        assert ok, name
