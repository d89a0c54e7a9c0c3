"""Reference constructions the engine is tested against.

No verdict uses these; they restate facts the engine computes another way,
so a test can compare the two.
"""

from ringinv.invariants import GActionContext, torsion_ideal
from ringinv.radicals import FiniteModule, jacobson_radical, prime_radical
from ringinv.ring_core import LEFT, FiniteRing, RingError, Subgroup, inverse


def ring_as_module(ring: FiniteRing, side: str,
                   scalars: FiniteRing | None = None, embed=None) -> FiniteModule:
    """The ring as a module over itself or over an embedded scalar ring; its
    `module_length` is the reference for `quotient_length` and for the
    longest chains of the ideal lattices.

    `embed` maps scalar-ring elements into the ring; required when `scalars`
    is given.
    """
    scalars = scalars or ring
    if embed is None:
        if scalars is not ring:
            raise RingError("an embedded scalar ring needs its embedding map")
        embed = lambda x: x  # noqa: E731 - identity embedding
    action = []
    for i in range(scalars.rank):
        s = embed(scalars.generator(i))
        row = []
        for j in range(ring.rank):
            g = ring.generator(j)
            row.append(ring.mul(s, g) if side == LEFT else ring.mul(g, s))
        action.append(row)
    return FiniteModule(scalars, side, ring.additive, action)


def background_invariants(ctx: GActionContext) -> list[tuple[str, bool, object]]:
    """Unconditional facts about an instance, as (name, holds, witness)."""
    ring = ctx.ring
    image = ctx.fixed_image()
    results = []
    for kind, radical in (("radical", jacobson_radical),
                          ("prime radical", prime_radical)):
        rad_r = radical(ring).sub
        ok = all(radical(image.ring).contains(y) for y in ctx.restrict(rad_r).basis)
        results.append((f"{kind} restriction is contained in the fixed {kind}",
                        ok, None if ok else ctx.meet(rad_r)))
    # the trace is additive, so both trace checks hold iff they hold on generators
    ok = all(ctx.fixed.contains(ctx.trace(x)) for x in ring.generators())
    results.append(("traces land in the fixed ring", ok, None))
    ok = all(ctx.trace(g.apply(x)) == ctx.trace(x)
             for x in ring.generators() for g in ctx.group.elements)
    results.append(("the trace is constant on orbits", ok, None))
    tor = torsion_ideal(ring, ctx.n)
    ok = all(tor.contains(g.apply(b))
             for g in ctx.group.elements for b in tor.basis)
    results.append(("the group-order torsion ideal is invariant", ok, None))
    return results


def regular_and_unit_scan(ring: FiniteRing):
    """(regular elements, units or None on a ring without identity), each
    element tested on its own: r is regular when r·R = R and R·r = R, and a
    unit when `inverse` finds its inverse."""
    def onto(products) -> bool:
        return Subgroup.from_generators(ring.additive, products).size == ring.order
    gens = ring.generators()
    regular = {r for r in ring.elements()
               if onto([ring.mul(r, g) for g in gens])
               and onto([ring.mul(g, r) for g in gens])}
    if not ring.is_unital:
        return regular, None
    return regular, {r for r in ring.elements() if inverse(ring, r) is not None}
