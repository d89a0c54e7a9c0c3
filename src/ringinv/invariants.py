"""Everything a group action induces on a finite ring: fixed subrings, traces,
torsion ideals, bad primes, the ideal correspondence with the fixed ring
(meet, restriction, extension), splitting structures, and
centralizers/normalizers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

from .caps import Caps, DEFAULT_CAPS
from .groups import (
    AutomorphismGroup,
    RingAutomorphism,
    factorize,
    fixed_subgroup,
    p_normal_complement,
    quotient_action,
)
from .radicals import ideal_lattice, prime_radical
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
    generated_ideal,
    inverse,
)


class NotInvertible(RingError):
    pass


class NotInFixedRing(RingError):
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
    on generators.
    """
    if fixed.size * complement.size != ring.order:
        raise RingError("subgroups do not complement each other")
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
class SplittingSearchResult:
    found: SplittingData | None
    exhaustive: bool
    tried: int = 0


@dataclass
class ProperSplittingReport:
    status: str                      # "yes" | "no" | "capped"
    witness: Ideal | None = None     # violating invariant ideal, when "no"
    exhaustive: bool = True
    equality_holds: bool | None = None   # e(I) == I ∩ R^G over the scanned ideals


@dataclass
class PrimeData:
    """Per-prime record of the bad-prime analysis."""

    p: int
    torsion: Ideal
    complement: AutomorphismGroup | None
    quotient_order: int | None = None
    fixed_image: RingImage | None = None
    induced: AutomorphismGroup | None = None
    trace_image: Subgroup | None = None
    d: int | None = None
    d_stabilized: bool = False
    d_cap: int = 0


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
        self.fixed = SubringView(ring, fixed_subgroup(ring, group.elements))
        self._cache: dict = {}

    def _cached(self, key, compute):
        return cached(self._cache, key, compute)

    # -- basics -----------------------------------------------------------
    def fixed_image(self) -> RingImage:
        return self.fixed.image(name=f"{self.ring_name}^G")

    def trace(self, r: Element) -> Element:
        out = self.ring.zero
        for g in self.group.elements:
            out = self.ring.add(out, g.apply(r))
        return out

    def trace_image(self, xs=None) -> Subgroup:
        """Additive span of the traces of the given elements; by default of
        all elements, which the traces of the generators span (the trace is
        additive)."""
        if xs is None:
            return self._cached("trace_image",
                                lambda: self.trace_image(self.ring.generators()))
        return Subgroup.from_generators(
            self.ring.additive, [self.trace(x) for x in xs])

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
        def compute():
            image = self.fixed_image()
            return generated_ideal(self.ring, [image.from_image(b) for b in sub.basis], side)
        return self._cached(("extend", side, sub.key), compute)

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
                sub = SubringView(self.ring,
                                  fixed_subgroup(self.ring, comp.elements))
                data.fixed_image = sub.image(name=f"{self.ring_name}^N{p}")
                data.induced, _ = quotient_action(self.group, comp, sub)
                image = data.fixed_image
                sring = image.ring
                # the relative trace is additive: the traces of the
                # generators span its image
                data.trace_image = Subgroup.from_generators(sring.additive, [
                    image.to_image(relative_trace(self.ring, self.group, comp,
                                                  image.from_image(y)))
                    for y in sring.generators()])
                d, stab = subgroup_power_nilpotency(
                    sring, data.trace_image, caps.d_search)
                data.d = d
                data.d_stabilized = stab
                data.d_cap = caps.d_search
            profile.data[p] = data
        profile.primes = tuple(bad)
        return profile

    # -- invariant ideal enumeration -------------------------------------------
    def invariant_ideals(self, side: str, caps: Caps = DEFAULT_CAPS):
        """All G-invariant sided ideals, or a flagged sample above the caps.

        Returns (ideals, exhaustive).  Every invariant ideal is a join of
        ideals generated by single G-orbits, so join-closure of those
        generators enumerates the lattice.
        """
        return self._cached(("inv_ideals", side, caps), lambda: ideal_lattice(
            self.ring, side, lambda x: self.invariant_ideal_from(x, side), 31, caps))

    def invariant_ideal_from(self, x: Element, side: str) -> Ideal:
        orbit = {g.apply(x) for g in self.group.elements}
        return generated_ideal(self.ring, orbit, side)

    # -- splittings ------------------------------------------------------------
    def splittings(self, caps: Caps = DEFAULT_CAPS):
        return self._cached(("splittings", caps), lambda: enumerate_splittings(self, caps))

    def proper_splitting(self, side: str, caps: Caps = DEFAULT_CAPS):
        """First proper splitting on the given side, with certainty flags.

        Returns (splitting | None, report: ProperSplittingReport-ish status):
        status "yes" with the splitting, "no" when certainly none exists,
        "capped" when the search was cut short.
        """
        return self._cached(("proper", side, caps),
                            lambda: self._compute_proper_splitting(side, caps))

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

def relative_trace(ring: FiniteRing, group: AutomorphismGroup,
                   normal: AutomorphismGroup, r: Element) -> Element:
    """Trace over coset representatives, for r fixed by the normal subgroup.

    Representatives are the least member of each coset; independence of the
    choice is verified on the input.
    """
    for h in normal.elements:
        if h.apply(r) != r:
            raise NotInFixedRing(f"{r} is not fixed by the normal subgroup")
    out = ring.zero
    for coset in group.left_cosets(normal):
        rep = coset[0]
        val = rep.apply(r)
        for other in coset[1:]:
            if other.apply(r) != val:
                raise RingError("coset members disagree on a fixed element")
        out = ring.add(out, val)
    return out


def torsion_ideal(ring: FiniteRing, n: int) -> Ideal:
    """Elements killed by a power of n: the span of the n-primary parts of
    the generators.  Always a two-sided ideal; closure is verified."""
    if n < 1:
        raise ValueError("torsion index must be >= 1")
    gens = []
    for i, d in enumerate(ring.cyclic_orders):
        cop = d
        while (g := gcd(cop, n)) > 1:
            cop //= g
        # cop is the largest divisor of d coprime to n; cop*e_i spans the
        # n-primary component of the i-th cyclic factor
        if cop != d:
            gens.append(ring.smul(cop, ring.generator(i)))
    ideal = Ideal.from_basis(ring, TWOSIDED, gens, verify=True)
    return ideal


def subgroup_power_nilpotency(ring: FiniteRing, sub: Subgroup, cap: int):
    """Least d with sub^d = 0 under span-of-products powers.

    Returns (d, stabilized): d is None when no power <= cap vanishes;
    stabilized is True when a repeated nonzero power proves none ever will.
    """
    if sub.is_zero():
        return 1, False
    current = sub
    seen = {sub.key}
    for d in range(2, cap + 1):
        current = ring.power_of_subgroup(sub, current)
        if current.is_zero():
            return d, False
        if current.key in seen:
            return None, True
        seen.add(current.key)
    return None, False


def averaging_idempotent(ctx: GActionContext) -> SplittingData:
    """Splitting from averaging over the group, when |G| is invertible.

    The projection is r -> |G|^{-1} * trace(r); being additive, it is given
    and checked (idempotent, image the fixed ring) on generators.
    """
    ring = ctx.ring
    if not ring.is_unital:
        raise NotInvertible("ring has no identity")
    inv = inverse(ring, ring.smul(ctx.n, ring.unit))
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


def splitting_search(ctx: GActionContext,
                     caps: Caps = DEFAULT_CAPS) -> SplittingSearchResult:
    """First splitting in canonical order, or none with an exhaustiveness flag.

    When the averaging idempotent exists its complement is returned (the
    canonical splitting); otherwise the least complement found by
    enumeration.
    """
    found, exhaustive = ctx.splittings(caps)
    if not found:
        return SplittingSearchResult(None, exhaustive, 0)
    try:
        avg = averaging_idempotent(ctx)
    except NotInvertible:
        return SplittingSearchResult(found[0], exhaustive, len(found))
    if exhaustive and all(sd.key != avg.key for sd in found):
        raise RingError("averaging complement missing from enumeration")
    return SplittingSearchResult(avg, exhaustive, len(found))


def enumerate_splittings(ctx: GActionContext, caps: Caps = DEFAULT_CAPS):
    """All complements realizing R = R^G ⊕ B as bimodules, sorted canonically.

    A bimodule projection e: R -> R^G is fixed by v_x = e(g_x), and every
    condition on it is linear over ⊕ Z/d_i: d_x·v_x = 0, v_x ∈ R^G (the
    unknowns range over (R^G)^k), e(s) = s for each basis element s of R^G,
    and e(u·g_x) = u·v_x, e(g_x·u) = v_x·u for each basis element u.  One
    `AdditiveMap` gives a particular solution and the solution kernel; the
    first `caps.splitting_enum` solutions are taken, which is all of them
    iff the kernel is no larger.  Each complement is the kernel of its e.
    Returns (list, exhaustive).
    """
    ring = ctx.ring
    fixed = ctx.fixed.sub
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
                        values.lattice_rows(), sources=sources)
    particular = solve.preimage(
        ring.zero * k + sum(sbasis, ()) + ring.zero * (2 * k * len(sbasis)))
    if particular is None:
        return [], True
    found = []
    for w in itertools.islice(solve.kernel, caps.splitting_enum):
        proj = tuple(split(unknowns.add(particular, w)))
        complement = AdditiveMap(group, proj, group.lattice_rows()).kernel
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
    """
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
                                         exhaustive=exhaustive,
                                         equality_holds=False)
        if e_image != meet:
            equality = False
    status = "yes" if exhaustive else "capped"
    return ProperSplittingReport(status=status, witness=None,
                                 exhaustive=exhaustive, equality_holds=equality)


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


def degenerate_trace_ideal(ctx: GActionContext, caps: Caps = DEFAULT_CAPS,
                           powers: bool = False):
    """The first nonzero invariant one-sided ideal I (left ideals first)
    with t(I) = 0, or with `powers` also one with t(I)^d = 0 for some d.

    Returns (ideal, d, capped): d is 1 for a zero trace image, and ideal and
    d are None when no ideal qualifies.  `capped` is set when an ideal
    enumeration was sampled or a power search reached `caps.d_search`
    without stabilizing.
    """
    capped = False
    for side in (LEFT, RIGHT):
        ideals, exhaustive = ctx.invariant_ideals(side, caps)
        capped = capped or not exhaustive
        for ideal in ideals:
            if ideal.is_zero():
                continue
            t_img = ctx.trace_image(ideal.basis)
            if t_img.is_zero():
                return ideal, 1, capped
            if powers:
                d, stabilized = subgroup_power_nilpotency(ctx.ring, t_img, caps.d_search)
                if d is not None:
                    return ideal, d, capped
                capped = capped or not stabilized
    return None, None, capped


def nondegenerate_trace_check(ctx: GActionContext, caps: Caps = DEFAULT_CAPS):
    """Fixed ring semiprime plus nonzero trace on every nonzero invariant
    one-sided ideal.  Returns (status, witness)."""
    image = ctx.fixed_image()
    if not prime_radical(image.ring).is_zero():
        return "no", ("fixed ring not semiprime", None)
    ideal, _, capped = degenerate_trace_ideal(ctx, caps)
    if ideal is not None:
        return "no", ("zero trace on nonzero invariant ideal", ideal)
    return ("capped" if capped else "yes"), None
