"""Everything a group action induces on a finite ring: fixed subrings, traces,
torsion ideals, bad primes, the ideal correspondence with the fixed ring
(meet, restriction, extension), splitting structures, and
centralizers/normalizers.  Every sided product here (invariant ideal
lattices, extensions, proper splittings, the trace scan) goes through
`ring_core.sided`, which computes an exact one once for all sides on a
commutative ring.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .caps import Caps, DEFAULT_CAPS
from .groups import (
    AutomorphismGroup,
    RingAutomorphism,
    fixed_ring,
    induced_action,
    p_normal_complement,
)
from .radicals import (
    exact_lattice,
    exhaustive_ideals,
    ideal_lattice,
    principal_ideal,
)
from .ring_core import (
    LEFT,
    RIGHT,
    TWOSIDED,
    AdditiveGroup,
    AdditiveMap,
    Element,
    FiniteRing,
    Ideal,
    RingError,
    RingImage,
    Subgroup,
    SubringView,
    cached,
    factorize,
    generated_ideal,
    inverse,
    sided,
)


class NotInvertible(RingError):
    pass


# -- splitting data -----------------------------------------------------------

@dataclass
class SplittingData:
    """A decomposition R = R^G ⊕ B with B a bimodule over the fixed ring.

    `projection` holds the images e(g_x) of the ring generators under the
    additive idempotent e with image R^G and kernel B; `project` extends
    them additively.
    """

    fixed: Subgroup
    complement: Subgroup
    projection: tuple

    def project(self, x: Element) -> Element:
        return self.fixed.group.combine(x, self.projection)

    @property
    def key(self):
        return self.complement.key


def _make_splitting(ring: FiniteRing, fixed: Subgroup, complement: Subgroup) -> SplittingData:
    """Build and verify splitting data from the two subgroups.

    One map, the inclusion of `fixed` into R/B, gives the meet (its kernel)
    and each e(g_x) (the preimage of g_x); the bimodule property is checked
    on generators.  A zero complement with sizes that multiply to |R| has
    R^G = R, where every one of those checks is vacuous and e is the
    identity, so its projection is the generators with no solve.
    """
    if fixed.size * complement.size != ring.order:
        raise RingError("subgroups do not complement each other")
    if complement.is_zero():
        # B = 0 makes R^G all of R: the meet is zero, every product lies in
        # R^G, and the preimage of g_x is g_x itself
        return SplittingData(fixed, complement, ring.generators())
    along = AdditiveMap(ring.additive, fixed.key, complement.key, sources=fixed.key)
    if not along.kernel.is_zero():
        raise RingError("subgroups intersect nontrivially")
    for s in fixed.basis:
        for b in complement.basis:
            if not complement.contains(ring.mul(s, b)):
                raise RingError("complement is not closed under left products")
            if not complement.contains(ring.mul(b, s)):
                raise RingError("complement is not closed under right products")
    # sizes multiply and the meet is zero, so fixed + complement = R and
    # every generator has a preimage
    proj = tuple(along.preimage(g) for g in ring.generators())
    return SplittingData(fixed, complement, proj)


@dataclass
class ProperSplittingReport:
    status: str                      # "yes" | "no" | "capped"
    witness: Ideal | None = None     # violating invariant ideal, when "no"
    equality_holds: bool | None = None   # e(I) == I ∩ R^G over the scanned ideals


@dataclass
class PrimeData:
    """Per-prime record of the bad-prime analysis."""

    p: int
    torsion: Ideal
    complement: AutomorphismGroup | None
    quotient_order: int | None = None
    fixed_image: RingImage | None = None
    trace_image: Subgroup | None = None
    d: int | None = None
    d_stabilized: bool = False


@dataclass
class BadPrimeProfile:
    primes: tuple[int, ...]
    data: dict = field(default_factory=dict)


# -- the action context ---------------------------------------------------------

class GActionContext:
    """A finite group acting on a finite ring, with caching for the searches.

    The fixed subring is computed and verified at construction; all further
    data (bad primes, splittings, invariant ideals, the ideal correspondence
    with the fixed ring) is derived lazily and keyed by the caps that shaped
    it.
    """

    def __init__(self, ring: FiniteRing, group: AutomorphismGroup,
                 ring_name: str | None = None, group_name: str | None = None):
        if group.ring is not ring:
            raise RingError("group does not act on this ring")
        self.ring = ring
        self.group = group
        self.n = group.order
        self.ring_name = ring_name or ring.name
        self.group_name = group_name or f"G{group.order}"
        self.fixed = fixed_ring(ring, group)
        self._cache: dict = {}

    def _cached(self, key, compute):
        return cached(self._cache, key, compute)

    # -- basics -----------------------------------------------------------
    def fixed_image(self) -> RingImage:
        """R^G as a ring of its own (`SubringView.image`), held in one slot
        of the context cache: the first call names and builds it, and every
        later one is a single `dict.get`.  The slot pickles with the
        context."""
        image = self._cache.get("fixed_image")
        if image is None:
            image = self._cache["fixed_image"] = self.fixed.image(name=f"{self.ring_name}^G")
        return image

    def order_inverse(self) -> Element | None:
        """The inverse of |G|·1 in R, or None when R has no identity or
        |G|·1 is not a unit: one `inverse` solve per context, read by the
        invertible-order clauses and `averaging_idempotent`."""
        def compute():
            ring = self.ring
            return inverse(ring, ring.smul(self.n, ring.unit)) if ring.is_unital else None
        return self._cached("order_inverse", compute)

    def trace(self, r: Element) -> Element:
        out = self.ring.zero
        for g in self.group.elements:
            out = self.ring.add(out, g.apply(r))
        return out

    def trace_image(self, xs=None) -> Subgroup:
        """Additive span of the traces of the given elements; by default of
        all elements, which the traces of the generators span (the trace is
        additive)."""
        return Subgroup.from_generators(
            self.ring.additive,
            [self.trace(x) for x in (self.ring.generators() if xs is None else xs)])

    # -- the ideal correspondence between R and R^G -------------------------
    def meet(self, sub: Subgroup) -> Subgroup:
        """sub ∩ R^G, as a subgroup of R."""
        return self._cached(("meet", sub.key), lambda: sub.intersect(self.fixed.sub))

    def restrict(self, sub: Subgroup) -> Subgroup:
        """The restriction sub ∩ R^G in the coordinates of the fixed ring."""
        def compute():
            image = self.fixed_image()
            return Subgroup.from_generators(
                image.ring.additive, [image.to_image(x) for x in self.meet(sub).basis])
        return self._cached(("restrict", sub.key), compute)

    def extend(self, sub: Subgroup, side: str) -> Ideal:
        """The extension of a subgroup of the fixed ring (in its coordinates):
        the sided ideal of R it generates, which contains it by the closure
        convention."""
        def compute(shared):
            image = self.fixed_image()
            return generated_ideal(self.ring, [image.from_image(b) for b in sub.basis], shared)
        return sided(self._cache, ("extend", sub.key), self.ring, side, compute)

    # -- bad primes ---------------------------------------------------------
    def bad_primes(self, caps: Caps = DEFAULT_CAPS) -> BadPrimeProfile:
        return self._cached(("bad_primes", caps), lambda: self._compute_bad_primes(caps))

    def _compute_bad_primes(self, caps: Caps) -> BadPrimeProfile:
        profile = BadPrimeProfile(primes=())
        bad = []
        for p in sorted(factorize(self.n)):
            tor = torsion_ideal(self.ring, p)
            if tor.is_zero():
                continue
            bad.append(p)
            data = PrimeData(p=p, torsion=tor, complement=None)
            comp = p_normal_complement(self.group, p)
            if comp is not None:
                data.complement = comp
                data.quotient_order = self.n // comp.order
                image = data.fixed_image = fixed_ring(self.ring, comp).image(
                    name=f"{self.ring_name}^N{p}")
                sring = image.ring
                # the relative trace sums the action G/N induces on R^N over
                # the cosets; it is additive, so the traces of the generators
                # span its image
                coset_map = induced_action(self.group, image, comp)
                reps = [coset[0].images for coset in self.group.left_cosets(comp)]
                data.trace_image = Subgroup.from_generators(sring.additive, [
                    functools.reduce(sring.add, [coset_map[g].apply(y) for g in reps])
                    for y in sring.generators()])
                d, stab = subgroup_power_nilpotency(
                    sring, data.trace_image, caps.d_search)
                data.d = d
                data.d_stabilized = stab
            profile.data[p] = data
        profile.primes = tuple(bad)
        return profile

    # -- invariant ideal enumeration -------------------------------------------
    def invariant_ideals(self, side: str, caps: Caps = DEFAULT_CAPS):
        """All G-invariant sided ideals, or a flagged sample above the caps.

        Returns (ideals, exhaustive).  When the sided ideal lattice is
        exhaustive (`radicals.exhaustive_ideals`), they are its members I
        with g(b) ∈ I for every basis vector b of I and every g ≠ 1 in G: an
        invariant sided ideal is a sided ideal, and as R is finite,
        g(I) ⊆ I gives g(I) = I.  Under G = 1 that is the lattice itself.
        Otherwise every invariant ideal is a join of ideals generated by
        single G-orbits (`invariant_ideal_from`), so join closure of those
        generators enumerates the lattice, or samples it above the caps.
        """
        return sided(self._cache, ("inv_ideals", caps), self.ring, side,
                     lambda s: self._invariant_lattice(s, caps), exact_lattice(self.ring, caps))

    def _invariant_lattice(self, side: str, caps: Caps):
        ideals = exhaustive_ideals(self.ring, side, caps)
        if ideals is None:
            return ideal_lattice(self.ring, side,
                                 lambda x: self.invariant_ideal_from(x, side), 31, caps)
        identity = self.group.identity()
        moving = [g for g in self.group.elements if g is not identity]
        return [ideal for ideal in ideals if all(
            ideal.contains(g.apply(b)) for g in moving for b in ideal.basis)], True

    def invariant_ideal_from(self, x: Element, side: str) -> Ideal:
        """The sided ideal the orbit of x generates: the join of the cached
        principal ideals of its points."""
        sub = Subgroup.zero(self.ring.additive)
        for y in {g.apply(x) for g in self.group.elements}:
            sub = sub.join(principal_ideal(self.ring, y, side).sub)
        return Ideal(self.ring, side, sub)

    # -- splittings ------------------------------------------------------------
    def splittings(self, caps: Caps = DEFAULT_CAPS):
        return self._cached(("splittings", caps), lambda: enumerate_splittings(self, caps))

    def proper_splitting(self, side: str, caps: Caps = DEFAULT_CAPS):
        """First proper splitting on the given side, with certainty flags.

        Returns (splitting | None, status): status "yes" with the splitting,
        "no" when certainly none exists, "capped" when the search was cut
        short.  It reads only the invariant ideal lattice of `side`, so it is
        shared where that lattice is.
        """
        return sided(self._cache, ("proper", caps), self.ring, side,
                     lambda s: self._compute_proper_splitting(s, caps),
                     exact_lattice(self.ring, caps))

    def _compute_proper_splitting(self, side: str, caps: Caps):
        candidates, exhaustive = self.splittings(caps)
        any_capped = not exhaustive
        for sd in candidates:
            report = is_proper_splitting(self, sd, side, caps)
            if report.status == "yes":
                return sd, "yes"
            if report.status == "capped":
                any_capped = True
        if any_capped:
            return None, "capped"
        return None, "no"


# -- free functions matching the operation surface ------------------------------

def torsion_ideal(ring: FiniteRing, n: int) -> Ideal:
    """Elements killed by a power of n: the sum of the primary components
    R_p for the primes p dividing n (`FiniteRing.primary_components`).
    Always a two-sided ideal; its closure is verified once, and the ideal
    is memoized on the ring by n."""
    if n < 1:
        raise ValueError("torsion index must be >= 1")
    return cached(ring._extra, ("torsion", n), lambda: Ideal.from_basis(
        ring, TWOSIDED, [b for p, comp in ring.primary_components() if n % p == 0
                         for b in comp.basis]))


def subgroup_power_nilpotency(ring: FiniteRing, sub: Subgroup, cap: int):
    """Least d <= cap with sub^d = 0, as (d, stabilized); see
    `FiniteRing.power_chain`."""
    return ring.power_chain(sub, cap)


def averaging_idempotent(ctx: GActionContext) -> SplittingData:
    """Splitting from averaging over the group, when |G| is invertible.

    The projection is r -> |G|^{-1} * trace(r); being additive, it is given
    and checked (idempotent, image the fixed ring) on generators.
    """
    ring = ctx.ring
    if not ring.is_unital:
        raise NotInvertible("ring has no identity")
    inv = ctx.order_inverse()
    if inv is None:
        raise NotInvertible(f"|G| = {ctx.n} is not a unit")
    gens = ring.generators()
    proj = tuple(ring.mul(inv, ctx.trace(g)) for g in gens)
    if any(ring.mul(inv, ctx.trace(e)) != e for e in proj):
        raise RingError("averaging map is not idempotent")
    if Subgroup.from_generators(ring.additive, proj) != ctx.fixed.sub:
        raise RingError("averaging image differs from the fixed ring")
    complement = Subgroup.from_generators(
        ring.additive, [ring.sub(g, e) for g, e in zip(gens, proj)])
    sd = _make_splitting(ring, ctx.fixed.sub, complement)
    if sd.projection != proj:
        raise RingError("averaging map differs from the splitting projection")
    return sd


def enumerate_splittings(ctx: GActionContext, caps: Caps = DEFAULT_CAPS):
    """All complements realizing R = R^G ⊕ B as bimodules, sorted canonically.

    A bimodule projection e: R -> R^G is fixed by v_x = e(g_x), and every
    condition on it is linear over ⊕ Z/d_i: d_x·v_x = 0, v_x ∈ R^G (the
    unknowns range over (R^G)^k), e(s) = s for each basis element s of R^G,
    and e(u·g_x) = u·v_x, e(g_x·u) = v_x·u for each basis element u.  One
    `AdditiveMap` gives a particular solution and the solution kernel; the
    first `caps.splitting_enum` solutions are taken, which is all of them
    iff the kernel is no larger.  Each complement is the kernel of its e.
    Returns (list, exhaustive).  When R^G = R the one complement is 0 (e is
    the identity), built and verified without the solve.
    """
    ring = ctx.ring
    fixed = ctx.fixed.sub
    if fixed.size == ring.order:
        if caps.splitting_enum < 1:
            return [], False
        return [_make_splitting(ring, fixed, Subgroup.zero(ring.additive))], True
    k, group, gens, sbasis = ring.rank, ring.additive, ring.generators(), fixed.basis

    def split(w):
        return [group.reduce(w[x * k:(x + 1) * k]) for x in range(k)]

    def defects(v):
        """(d_x·v_x)_x, (e(s))_s, then e(u·g_x) - u·v_x and e(g_x·u) - v_x·u."""
        out = [group.smul(d, vx) for d, vx in zip(ring.cyclic_orders, v)]
        out += [group.combine(s, v) for s in sbasis]
        for u in sbasis:
            for g, vx in zip(gens, v):
                out.append(group.sub(group.combine(ring.mul(u, g), v), ring.mul(u, vx)))
                out.append(group.sub(group.combine(ring.mul(g, u), v), ring.mul(vx, u)))
        return sum(out, ())

    unknowns = AdditiveGroup(ring.cyclic_orders * k)
    sources = [ring.zero * x + row + ring.zero * (k - 1 - x)
               for x in range(k) for row in fixed.key]
    values = AdditiveGroup(ring.cyclic_orders * (k + len(sbasis) * (1 + 2 * k)))
    solve = AdditiveMap(unknowns, [defects(split(w)) for w in sources],
                        values.relations, sources=sources)
    particular = solve.preimage(
        ring.zero * k + sum(sbasis, ()) + ring.zero * (2 * k * len(sbasis)))
    if particular is None:
        return [], True
    found = []
    for w in itertools.islice(solve.kernel, caps.splitting_enum):
        proj = tuple(split(unknowns.add(particular, w)))
        complement = AdditiveMap(group, proj, group.relations).kernel
        sd = _make_splitting(ring, fixed, complement)
        if sd.projection != proj:
            raise RingError("a solved projection is not its splitting's")
        found.append(sd)
    return sorted(found, key=lambda sd: sd.key), solve.kernel.size <= caps.splitting_enum


def is_proper_splitting(ctx: GActionContext, sd: SplittingData, side: str,
                        caps: Caps = DEFAULT_CAPS) -> ProperSplittingReport:
    """Check e(I) ⊆ I ∩ R^G over the G-invariant sided ideals.

    Also records whether the equality form e(I) = I ∩ R^G held throughout
    (the reverse containment is automatic and is asserted along the way).
    The scan reads only the invariant ideal lattice of `side`, so it is
    cached on the context by the complement and the caps, and shared where
    that lattice is.
    """
    return sided(ctx._cache, ("is_proper", sd.key, caps), ctx.ring, side,
                 lambda s: _scan_proper_splitting(ctx, sd, s, caps), exact_lattice(ctx.ring, caps))


def _scan_proper_splitting(ctx: GActionContext, sd: SplittingData, side: str,
                           caps: Caps) -> ProperSplittingReport:
    ring = ctx.ring
    ideals, exhaustive = ctx.invariant_ideals(side, caps)
    equality = True
    for ideal in ideals:
        e_image = Subgroup.from_generators(
            ring.additive, [sd.project(b) for b in ideal.basis])
        meet = ctx.meet(ideal.sub)
        if not all(e_image.contains(x) for x in meet.basis):
            raise RingError("fixed part of an ideal escaped e(I)")
        ok = all(meet.contains(x) for x in e_image.basis)
        if not ok:
            return ProperSplittingReport(status="no", witness=ideal,
                                         equality_holds=False)
        if e_image != meet:
            equality = False
    status = "yes" if exhaustive else "capped"
    return ProperSplittingReport(status=status, witness=None,
                                 equality_holds=equality)


@dataclass
class CentralizerData:
    centralizer: SubringView
    normalizer: SubringView
    units: tuple
    central_units: tuple
    normalizing_units: tuple


def centralizer_normalizer(ring: FiniteRing, sub: SubringView) -> CentralizerData:
    """Centralizer and normalizer of a subring, with their unit parts."""
    cent = []
    norm = []
    sub_elems = sub.elements()
    for b in ring.elements():
        if all(ring.mul(b, a) == ring.mul(a, b) for a in sub.basis):
            cent.append(b)
        if {ring.mul(b, a) for a in sub_elems} == {ring.mul(a, b) for a in sub_elems}:
            norm.append(b)
    cview = SubringView.from_elements(ring, cent)
    nview = SubringView.from_elements(ring, norm)
    if not all(nview.contains(x) for x in cview.basis):
        raise RingError("centralizer escaped the normalizer")
    units = tuple(sorted(unit_group(ring)))
    central_units = tuple(u for u in units if cview.contains(u))
    normalizing_units = tuple(u for u in units if nview.contains(u))
    return CentralizerData(cview, nview, units, central_units, normalizing_units)


def unit_group(ring: FiniteRing) -> list[Element]:
    if not ring.is_unital:
        return []
    return [x for x in ring.elements() if inverse(ring, x) is not None]


def inner_automorphism(ring: FiniteRing, u: Element) -> RingAutomorphism:
    """Conjugation by a unit, as a validated automorphism."""
    if not ring.is_unital:
        raise NotInvertible("inner automorphisms need a unital ring")
    uinv = inverse(ring, u)
    if uinv is None:
        raise NotInvertible(f"{u} is not a unit")
    images = [ring.mul(ring.mul(u, g), uinv) for g in ring.generators()]
    return RingAutomorphism(ring, images)


def degenerate_trace_ideal(ctx: GActionContext, caps: Caps, powers: bool):
    """The first nonzero invariant one-sided ideal I (left ideals first)
    with t(I) = 0, or with `powers` also one with t(I)^d = 0 for some d.

    Returns (ideal, d, capped): d is 1 for a zero trace image, and ideal and
    d are None when no ideal qualifies.  `capped` is set when an ideal
    enumeration was sampled or a power search reached `caps.d_search`
    without stabilizing.  Where the right lattice is the left one, the right
    scan is the left scan's result (`ring_core.sided`).
    """
    capped, scans = False, {}
    for side in (LEFT, RIGHT):
        ideal, d, side_capped = sided(scans, ("trace",), ctx.ring, side,
                                      lambda s: _trace_scan(ctx, s, caps, powers),
                                      exact_lattice(ctx.ring, caps))
        capped = capped or side_capped
        if ideal is not None:
            return ideal, d, capped
    return None, None, capped


def _trace_scan(ctx: GActionContext, side: str, caps: Caps, powers: bool):
    """(ideal, d, capped) of `degenerate_trace_ideal` over the `side` ideals.
    Each ideal's trace image is memoized on the context by its key, so the
    scans of C1_5 and N2 compute it once between them."""
    ideals, exhaustive = ctx.invariant_ideals(side, caps)
    capped = not exhaustive
    for ideal in ideals:
        if ideal.is_zero():
            continue
        t_img = ctx._cached(("trace_image", ideal.key), lambda: ctx.trace_image(ideal.basis))
        if t_img.is_zero():
            return ideal, 1, capped
        if powers:
            d, stabilized = subgroup_power_nilpotency(ctx.ring, t_img, caps.d_search)
            if d is not None:
                return ideal, d, capped
            capped = capped or not stabilized
    return None, None, capped

