"""Reference constructions the engine is tested against.

No verdict uses these; they restate facts the engine computes another way,
so a test can compare the two.
"""

from math import gcd

from ringinv.caps import Caps
from ringinv.groups import AutomorphismGroup
from ringinv.invariants import GActionContext, torsion_ideal
from ringinv.lattices import hermite_solve
from ringinv.radicals import FiniteModule, ideal_lattice, jacobson_radical, prime_radical
from ringinv.ring_core import (
    LEFT,
    TWOSIDED,
    AdditiveGroup,
    AdditiveMap,
    Coordinates,
    Element,
    FiniteRing,
    IllDefined,
    Ideal,
    NonAssociative,
    NotUnital,
    RingError,
    Subgroup,
    generated_ideal,
    inverse,
    join_closure,
)


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


def per_orbit_invariant_ideals(ctx: GActionContext, side: str, caps: Caps):
    """(the G-invariant `side` ideals, exhaustive): the join closure of the
    ideals generated by single G-orbits, each closed from scratch, or above
    the caps the flagged sample the engine draws with the same salt.  The
    reference for `GActionContext.invariant_ideals`, which filters the
    exhaustive ideal lattice instead."""
    ring = ctx.ring
    return ideal_lattice(ring, side, lambda x: generated_ideal(
        ring, {g.apply(x) for g in ctx.group.elements}, side), 31, caps)


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


def relative_trace(ring: FiniteRing, group: AutomorphismGroup,
                   normal: AutomorphismGroup, r: Element) -> Element:
    """Trace over coset representatives, for r fixed by the normal subgroup:
    the reference for the trace images of `GActionContext.bad_primes`.

    Representatives are the least member of each coset; independence of the
    choice is verified on the input.
    """
    for h in normal.elements:
        if h.apply(r) != r:
            raise RingError(f"{r} is not fixed by the normal subgroup")
    out = ring.zero
    for coset in group.left_cosets(normal):
        rep = coset[0]
        val = rep.apply(r)
        for other in coset[1:]:
            if other.apply(r) != val:
                raise RingError("coset members disagree on a fixed element")
        out = ring.add(out, val)
    return out


# -- whole-ring walks -------------------------------------------------------------

def whole_ring_prime_radical(ring: FiniteRing) -> Subgroup:
    """The elements whose two-sided principal ideal is nilpotent, each
    element of R tested on its own: the reference for
    `radicals.prime_radical`, which walks the primary components one coset
    of the part found so far at a time."""
    members = [x for x in ring.elements()
               if ring.power_chain(generated_ideal(ring, [x], TWOSIDED).sub)[0] is not None]
    return Subgroup.from_generators(ring.additive, members)


def solved_quasi_regular(ring: FiniteRing, y: Element) -> bool:
    """Left quasi-regularity of y by one preimage solve of −y under the
    additive map z ↦ z + z·y, for every y (no power series)."""
    images = [ring.add(g, ring.mul(g, y)) for g in ring.generators()]
    z = AdditiveMap(ring.additive, images, ring.additive.relations).preimage(ring.neg(y))
    return z is not None and ring.add(ring.add(z, y), ring.mul(z, y)) == ring.zero


def whole_ring_jacobson_radical(ring: FiniteRing) -> Subgroup:
    """The elements x whose principal left ideal R¹x is quasi-regular
    throughout, each element of R tested on its own, quasi-regularity by
    `solved_quasi_regular`: the reference for `radicals.jacobson_radical`."""
    verdict: dict = {}

    def quasi_regular(y):
        if y not in verdict:
            verdict[y] = solved_quasi_regular(ring, y)
        return verdict[y]
    members = [x for x in ring.elements()
               if all(quasi_regular(y) for y in generated_ideal(ring, [x], LEFT).sub)]
    return Subgroup.from_generators(ring.additive, members)


def generator_torsion_ideal(ring: FiniteRing, n: int) -> Subgroup:
    """The span of the n-primary parts of the generators: cop·g_i, with cop
    the largest divisor of d_i prime to n, spans the n-primary part of the
    i-th cyclic factor.  The reference for `invariants.torsion_ideal`."""
    gens = []
    for i, d in enumerate(ring.cyclic_orders):
        cop = d
        while (g := gcd(cop, n)) > 1:
            cop //= g
        if cop != d:
            gens.append(ring.smul(cop, ring.generator(i)))
    return Subgroup.from_generators(ring.additive, gens)



def whole_ring_lattice(ring: FiniteRing, side: str, caps: Caps):
    """(the join closure of the principal `side` ideals of every element of
    R, sorted by key, exhaustive), cut at `caps.ideal_count` as
    `join_closure` cuts: the reference for `radicals.enumerate_ideals` on an
    exact lattice, which builds it as the product of the lattices of the
    primary components."""
    subs, exhaustive = join_closure(
        (generated_ideal(ring, [x], side).sub for x in ring.elements()), caps.ideal_count)
    return [Ideal(ring, side, s) for s in subs], exhaustive


def element_validated_ring(cyclic_orders, table, unit_hint: Element | None = None,
                           name: str | None = None) -> FiniteRing:
    """Raw structure constants validated through ring multiplication: the
    reference for `validate_ring`, which reads associativity off the
    structure constants and solves for a left identity only.

    Associativity is tested as (g_i·g_j)·g_l = g_i·(g_j·g_l) with
    `FiniteRing.mul`, in the order (i, j, l); without a hint the identity
    is the preimage of the generators under u ↦ (u·g_j, g_j·u)_j, a graph
    of k + 2k² rows."""
    group = AdditiveGroup(tuple(int(d) for d in cyclic_orders))
    k = group.rank
    if len(table) != k or any(len(row) != k for row in table):
        raise RingError(f"table must be {k}x{k}")
    reduced = [[group.reduce(c) for c in row] for row in table]
    if any(len(c) != k for row in reduced for c in row):
        raise RingError("structure constant of wrong length")
    for i in range(k):
        for j in range(k):
            c = reduced[i][j]
            if any(group.smul(group.cyclic_orders[i], c)) or any(
                    group.smul(group.cyclic_orders[j], c)):
                raise IllDefined(i, j)
    ring = FiniteRing(group, reduced, None, name=name)
    gens = ring.generators()
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if ring.mul(reduced[i][j], gens[l]) != ring.mul(gens[i], reduced[j][l]):
                    raise NonAssociative(i, j, l)
    if unit_hint is not None:
        unit = group.reduce(unit_hint)
        if any(ring.mul(unit, g) != g or ring.mul(g, unit) != g for g in gens):
            raise NotUnital(f"claimed identity {unit} is not one")
    else:
        images = [sum((reduced[i][j] for j in range(k)), ())
                  + sum((reduced[j][i] for j in range(k)), ()) for i in range(k)]
        pairs = AdditiveGroup(group.cyclic_orders * (2 * k))
        unit = AdditiveMap(group, images, pairs.relations).preimage(sum(gens, ()) * 2)
    ring.unit = unit
    return ring


class BackSubstitutedCoordinates(Coordinates):
    """`Coordinates` that write every element in A's key by back-substitution,
    down the identity key too: the path that `Coordinates.project` skips
    when A is the whole group."""

    def _solve(self, x):
        solved = hermite_solve(self._above, x)
        if solved is None:
            raise RingError(f"{tuple(x)} is not in the subgroup")
        return solved[0]


# -- the per-check floor before its one-pass forms ----------------------------------

_SEVERITY = ("holds", "holds (dominated)", "capped", "fails")


def severity_worst(statuses) -> str:
    """The worst status by `_SEVERITY.index`, the first of them on a tie,
    "holds" for none: the reference for `theorems._worst`, which folds by a
    rank dict."""
    return max(statuses, key=_SEVERITY.index, default="holds")


def _branch_worst(clauses) -> str:
    if not clauses:
        return "fails"
    return severity_worst(h.status for h in clauses if not h.masked)


def comprehension_hyp_status(hyps) -> str:
    """The hypothesis status from three comprehensions over the clauses:
    the reference for `theorems._hyp_status`, which sorts them in one loop."""
    parts = [h.status for h in hyps if not h.cond.startswith("alt") and not h.masked]
    alt1 = [h for h in hyps if h.cond.startswith("alt1")]
    alt2 = [h for h in hyps if h.cond.startswith("alt2")]
    if alt1 or alt2:
        parts.append(min(_branch_worst(alt1), _branch_worst(alt2), key=_SEVERITY.index))
    return severity_worst(parts)


def isinstance_to_jsonable(obj):
    """The JSON form of a report value by one `isinstance` chain: the
    reference for `theorems.to_jsonable`, which dispatches on the exact
    type."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [isinstance_to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): isinstance_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Subgroup):
        return {"basis": [list(b) for b in obj.basis], "size": obj.size}
    if isinstance(obj, Ideal):
        return {"side": obj.side, "basis": [list(b) for b in obj.basis],
                "size": obj.size}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


# -- the general paths that the trivial-group shortcuts skip -------------------------

def spanned_fixed_subgroup(ring: FiniteRing, automorphisms) -> Subgroup:
    """The meet of the kernels of a − 1, started from the span of the
    generators: the reference for `groups.fixed_subgroup`, which starts
    from the interned whole group."""
    group = ring.additive
    fixed = Subgroup.from_generators(group, ring.generators())
    for a in automorphisms:
        if all(a.apply(b) == b for b in fixed.basis):
            continue
        moved = [group.sub(a.apply(group.reduce(row)), group.reduce(row))
                 for row in fixed.key]
        fixed = AdditiveMap(group, moved, group.relations, sources=fixed.key).kernel
    return fixed


def closure_holds(ring: FiniteRing, sub: Subgroup) -> bool:
    """Whether every product of two basis vectors lies in `sub`: the loop
    that `SubringView` skips on a subgroup of size |R|."""
    return all(sub.contains(ring.mul(a, b)) for a in sub.basis for b in sub.basis)


def solved_splitting(ring: FiniteRing, fixed: Subgroup, complement: Subgroup):
    """(fixed, complement, projection) of R = fixed ⊕ complement by the
    graph solve of the inclusion of `fixed` into R/complement, with every
    check run: the reference for `invariants._make_splitting`, which
    returns the generators for a zero complement."""
    if fixed.size * complement.size != ring.order:
        raise RingError("subgroups do not complement each other")
    along = AdditiveMap(ring.additive, fixed.key, complement.key, sources=fixed.key)
    if not along.kernel.is_zero():
        raise RingError("subgroups intersect nontrivially")
    for s in fixed.basis:
        for b in complement.basis:
            if not (complement.contains(ring.mul(s, b)) and complement.contains(ring.mul(b, s))):
                raise RingError("complement is not a bimodule")
    return fixed, complement, tuple(along.preimage(g) for g in ring.generators())
