"""Radical and structure theory of finite rings.

The prime radical (largest nilpotent ideal) and the Jacobson radical
(quasi-regularity) are decided by independent tests, nilpotency and
quasi-regularity; their agreement on finite rings is checked whenever a
profile is built, never assumed.  Both radicals are sums of principal left
ideals R¹x: x lies in the prime radical iff R¹x is nilpotent (the proof is
in `prime_radical`), and in the Jacobson radical iff every member of R¹x is
quasi-regular.  So both are found by one walk (`_radical_span`) over the
same principal left ideals, each closed once per cyclic subgroup (the
generators of <x> all generate the ideal x does), and the two oracles
differ only in the test each ideal gets.  The cross-check therefore guards
the two tests, not the walk they share: a walk that missed a coset would
shift both radicals alike and they would still agree, so the walk is held
to the whole-ring walks kept in `tests/oracles.py` by the test suite
instead.  A finite ring is the direct product of its primary components R_p
(`FiniteRing.primary_components`), so each radical is the sum of its parts
in the components, and the walk visits component elements only; a radical
is an additive subgroup, so membership is constant on the cosets of the
part found so far, and the walk decides one element per coset.  An element
is decided quasi-regular by its powers under a∘b = a + b + ab, which reach
0 iff it is, and every quasi-inverse is checked.
Uniform dimension, regular elements, and composition lengths of finite
modules round out the structure data the checkers need.

Regular elements are read off unitality, never listed: a finite ring has
one iff it is unital, and then they are its units (`regular_elements_quotient`).

An exhaustive ideal lattice is the one source of its lattice facts: the
join closure that builds it also gives each member the joins strictly above
it, from which the colength of every member goes into a memo on the ring,
and the atoms are the members of length 1.  Only a sampled or capped
lattice climbs covers for a colength (up to the first ideal whose colength
is known) and closes every element for the atoms.

An exact lattice is the product of the lattices of the primary components
(`_product_lattice`), one join closure per component.  With R_p ⊕ R_q
= R and R_q·R_p = 0 for q ≠ p (`FiniteRing.primary_components`):
- every sided ideal I of R is ⊕_p I_p with I_p = I ∩ R_p, since every
  subgroup of R is the sum of its parts in the components;
- a subgroup of R_p is a sided ideal of R iff it is one of R_p: R·x =
  R_p·x for x ∈ R_p, as R_q·x = 0 (so on the right), so the sided ideals of
  R in R_p are the joins of principal ideals of elements of R_p, and any
  choice of one per component sums to a sided ideal of R;
- R/I ≅ ⊕_p R_p/I_p as R-modules, and R acts on R_p/I_p through R_p, so
  len(R/I) = Σ_p len(R_p/I_p).
So the members of R's lattice are the sums of one member of each component
lattice, and their colengths are the sums of the component colengths.  The
join closure over every element of R runs when a component lattice or the
product outgrows `caps.ideal_count`, and then it gives the capped lattice it
always gave; on a ring with one primary component it is that component's
closure, and runs once, cut or not.  On a commutative ring each exact sided
product here is computed once for all three sides (`ring_core.sided`), so
the sides share one colength memo (`ring_core.shared_side`).

A copy S of R in other coordinates (R^G for G = 1 and R/0 when R's cyclic
orders are not Smith invariant factors, R^N for N = 1) carries R's radicals
and exact ideal lattices instead of computing them again.
`ring_core._coordinate_ring` records (R, project) on S only after
`Coordinates.check` has proved project: R → S a ring isomorphism
(`ring_core.copy_source`).  A ring isomorphism maps nilpotent ideals to
nilpotent ideals and quasi-inverses to quasi-inverses, so it maps the prime
and the Jacobson radical of R onto those of S, and the sided ideals of R
onto those of S with their inclusions, so each colength too.  Each carried
radical still goes through `Ideal.from_basis` (closure on S) and a
nilpotency check on S, which for J also proves every member
quasi-regular (`_checked_radical`).  Each carried ideal is checked closed on
S.  Everything else is computed on S as before: sampled lattices above
`exhaustive_ideal_order`, lattices cut at `ideal_count`, principal ideals
and uniform dimension.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, lcm

from .caps import Caps, DEFAULT_CAPS
from .ring_core import (
    LEFT,
    RIGHT,
    TWOSIDED,
    AdditiveGroup,
    Element,
    FiniteRing,
    Ideal,
    RingError,
    Subgroup,
    cached,
    chain_length,
    copy_source,
    cover,
    generated_ideal,
    join_closure,
    minimal_closures,
    shared_side,
    sided,
)


class SizeCap(RingError):
    pass


class CrossCheckError(RingError):
    pass


# -- nilpotency ------------------------------------------------------------------

def nilpotency_index(ring: FiniteRing, sub: Subgroup | None = None) -> int | None:
    """Least k with the k-fold product span zero (of the whole ring by
    default); None when a nonzero power repeats, so none ever vanishes.
    The whole ring's index, which several checkers read, is memoized on the
    ring."""
    if sub is None:
        return cached(ring._extra, "nilpotency_index",
                      lambda: ring.power_chain(ring.additive.whole)[0])
    return ring.power_chain(sub)[0]


# -- principal ideals, cached on the ring -----------------------------------------

def principal_ideal(ring: FiniteRing, x: Element, side: str) -> Ideal:
    """The sided ideal x generates, closed once per cyclic subgroup.

    With o the additive order of x, every k·x with gcd(k, o) = 1 generates
    the same ideal (x is a multiple of it), so one closure fills them all.
    On a commutative ring one closure serves all three sides.  A hit is read
    from the memo `sided` keeps before any closure is built.
    """
    hit = ring._extra.get(("principal", x, side))
    if hit is not None:
        return hit

    def compute(shared):
        ideal = generated_ideal(ring, [x], shared)
        o = lcm(*(d // gcd(c, d) for c, d in zip(x, ring.cyclic_orders)))
        for k in range(2, o):
            if gcd(k, o) == 1:
                ring._extra[("principal", ring.smul(k, x), shared)] = ideal
        return ideal
    return sided(ring._extra, ("principal", x), ring, side, compute)


# -- the two radicals --------------------------------------------------------------

def _radical_span(ring: FiniteRing, test) -> Subgroup:
    """The sum of the principal left ideals R¹x of R that pass `test`, for
    a radical in which x lies iff R¹x passes; `test` runs once per distinct
    ideal, memoized by its key.

    Such a radical is an additive subgroup, so it is ⊕_p (rad ∩ R_p) over
    the primary components (`FiniteRing.primary_components`); R¹x lies in
    R_p for x ∈ R_p, so each component is walked alone.  For a part S found
    so far, x and x + s (s ∈ S) are both in the radical or both out of it,
    so the walk decides one element per coset of S: each coset is named by
    its least representative (`Subgroup.coset_rep`), a rejected coset stays
    rejected as S grows (its names are re-reduced), and each time S grows
    the walk starts over on the cosets of the larger S.
    """
    verdicts: dict = {}
    total = Subgroup.zero(ring.additive)
    for _, component in ring.primary_components():
        span, rejected, grown = Subgroup.zero(ring.additive), set(), True
        while grown:
            grown = False
            for x in itertools.islice(component.transversal(span), 1, None):
                name = span.coset_rep(x)
                if name in rejected:
                    continue
                ideal = principal_ideal(ring, x, LEFT)
                if cached(verdicts, ideal.key, lambda: test(ideal)):
                    span = span.join(ideal.sub)
                    rejected = {span.coset_rep(r) for r in rejected}
                    grown = True
                    break
                rejected.add(name)
        total = total.join(span)
    return total


def _checked_radical(ring: FiniteRing, radical, test, kind: str) -> Ideal:
    """`radical(ring)` as a two-sided ideal, verified to be one and to be
    nilpotent: `radical(R)` mapped by `project` when `ring` is a checked
    full-order copy of R (`ring_core.copy_source`), else the walk
    `_radical_span(ring, test)`.

    An isomorphism maps each radical of R onto that of the copy; the basis
    it maps spans the same subgroup the walk would find, and its key is the
    same canonical key.  The nilpotency check also proves a carried Jacobson
    radical quasi-regular: a member y of a nilpotent ideal has the
    quasi-inverse Σ_{k≥1} (−y)^k, a finite sum.
    """
    source = copy_source(ring)
    if source is None:
        basis = _radical_span(ring, test).basis
    else:
        parent, project = source
        basis = [project(b) for b in radical(parent).basis]
    out = Ideal.from_basis(ring, TWOSIDED, basis)
    if nilpotency_index(ring, out.sub) is None:
        raise CrossCheckError(f"{kind} of {ring.name} is not nilpotent")
    return out


def prime_radical(ring: FiniteRing) -> Ideal:
    """Largest nilpotent ideal N: the x whose principal left ideal R¹x is
    nilpotent.  The result is verified to be a nilpotent two-sided ideal.

    x ∈ N iff R¹x is nilpotent.  (⇒) N is a left ideal containing x, so
    R¹x ⊆ N.  (⇐) Let L = R¹x with L^n = 0.  I = L + LR is a two-sided
    ideal, as RL ⊆ L and LRR ⊆ LR.  In a product of m elements l_i·r_i of
    I (r_i ∈ R¹), each r_i·l_(i+1) lies in RL + L ⊆ L, so the product lies
    in L^m·R¹; hence I^n = 0, and x ∈ I ⊆ N.
    """
    return cached(ring._extra, "prime_radical", lambda: _checked_radical(
        ring, prime_radical, _is_nilpotent, "prime radical"))


def _is_nilpotent(ideal: Ideal) -> bool:
    return nilpotency_index(ideal.ring, ideal.sub) is not None


def is_quasi_regular(ring: FiniteRing, y: Element) -> bool:
    """Left quasi-regularity: some z satisfies z + y + z*y = 0, decided by
    the circle powers of y (`_circle_powers`), which decide every power of
    y with it; every quasi-inverse found is checked before it is believed."""
    return cached(ring._extra, ("qr", y), lambda: _circle_powers(ring, y))


def _circle(ring: FiniteRing, a: Element, b: Element) -> Element:
    """a∘b = a + b + a·b, so that z∘y = 0 says z is a left quasi-inverse of y."""
    return ring.add(ring.add(a, b), ring.mul(a, b))


def _check_quasi_inverse(ring: FiniteRing, z: Element, y: Element) -> None:
    if _circle(ring, z, y) != ring.zero:
        raise CrossCheckError(f"quasi-inverse of {y} in {ring.name} does not check")


def _circle_powers(ring: FiniteRing, y: Element) -> bool:
    """Left quasi-regularity of y from its circle powers y^∘1 = y,
    y^∘(k+1) = y^∘k∘y; the verdict is recorded for every power walked.

    (R, ∘) is a finite monoid with identity 0 (a∘b is (1+a)(1+b) − 1 in
    the unitalization R¹, so ∘ is associative), and y is left
    quasi-regular iff it has a left inverse z∘y = 0 there.  In a finite
    monoid a left-invertible y is invertible: z∘y = 0 makes x ↦ y∘x
    injective, hence onto, so y∘x = 0 for some x, and z = z∘y∘x = x.  So y
    is left quasi-regular iff it is a unit of (R, ∘), iff its powers reach
    0: a unit generates a finite cyclic group, and the walk, which stops at
    0 or at the first repeat, meets 0 before any repeat.  A power y^∘k has
    y's verdict: powers of a unit are units, and an inverse u of y^∘k gives
    y∘(y^∘(k−1)∘u) = 0, so y is right-invertible, hence a unit by the same
    argument.  When y^∘m = 0, the inverse of y^∘k is y^∘(m−k), checked for
    every member of the orbit.
    """
    orbit, seen, w = [], set(), y
    while w != ring.zero and w not in seen:
        orbit.append(w)
        seen.add(w)
        w = _circle(ring, w, y)
    verdict = w == ring.zero
    if verdict:
        for w, z in zip(orbit, reversed(orbit)):
            _check_quasi_inverse(ring, z, w)
    ring._extra.update(dict.fromkeys([("qr", w) for w in orbit], verdict))
    return verdict


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Quasi-regularity radical: x belongs iff every member of its principal
    left ideal R¹x is left quasi-regular.

    The walk (`_radical_span`) decides one principal left ideal per coset of
    the part found so far, in each primary component; each distinct ideal
    gets one verdict, a scan that stops at its first element that is not
    quasi-regular, and a passing ideal joins the radical whole.
    """
    return cached(ring._extra, "jacobson_radical", lambda: _checked_radical(
        ring, jacobson_radical, _is_quasi_regular_ideal, "Jacobson radical"))


def _is_quasi_regular_ideal(ideal: Ideal) -> bool:
    return all(is_quasi_regular(ideal.ring, y) for y in ideal.sub)


@dataclass
class RadicalProfile:
    prime_radical: Ideal
    jacobson_radical: Ideal
    semiprime: bool
    semisimple_artinian: bool


def radical_profile(ring: FiniteRing) -> RadicalProfile:
    """Compute both radicals by their independent tests and insist that
    they agree; each is verified a nilpotent two-sided ideal as it is
    computed (`_checked_radical`).  The two share the coset walk
    `_radical_span`, so the agreement checks the nilpotency and
    quasi-regularity tests, not the walk; the whole-ring walks in
    `tests/oracles.py` check that.  On a full-order copy both are carried
    from R by one map, so there the agreement is R's, carried."""
    nil = prime_radical(ring)
    rad = jacobson_radical(ring)
    if nil.sub != rad.sub:
        raise CrossCheckError(
            f"prime and Jacobson radicals disagree on {ring.name}: "
            f"{sorted(nil.elements())} vs {sorted(rad.elements())}")
    return RadicalProfile(
        prime_radical=nil,
        jacobson_radical=rad,
        semiprime=nil.is_zero(),
        semisimple_artinian=rad.is_zero(),
    )


def is_semisimple_artinian(ring: FiniteRing) -> bool:
    return jacobson_radical(ring).is_zero()


# -- ideal lattices -----------------------------------------------------------------

def enumerate_ideals(ring: FiniteRing, side: str, caps: Caps = DEFAULT_CAPS):
    """All sided ideals (join closure of the principal ones), or a flagged
    sample when the ring or the lattice outgrows the caps.  An exhaustive
    lattice puts the colength of each member in the ring's colength memo.
    On a full-order copy of R whose lattice is exhaustive, R's lattice is
    carried over (`_carried_lattice`)."""
    return sided(ring._extra, ("ideals", caps), ring, side,
                 lambda s: _carried_lattice(ring, s, caps) or _principal_lattice(ring, s, caps),
                 exact_lattice(ring, caps))


def _carried_lattice(ring: FiniteRing, side: str, caps: Caps):
    """(R's exhaustive `side` lattice mapped by `project`, True) when `ring`
    is a checked full-order copy of R (`ring_core.copy_source`) and that
    lattice is exact and exhaustive; else None.

    `project` is a ring isomorphism, so it maps the sided ideals of R onto
    those of the copy and keeps every colength; each image is checked
    closed on the copy, sorted by the copy's keys as the join closure
    sorts, and gets the colength of its source in the copy's memo.  The
    copy is commutative iff R is, so `side` is the shared side on both.  A
    sampled or capped lattice is left to the copy's own search.
    """
    source = copy_source(ring)
    if source is None or not exact_lattice(ring, caps):
        return None
    parent, project = source
    ideals, exhaustive = enumerate_ideals(parent, side, caps)
    if not exhaustive:
        return None
    carried = []
    for ideal in ideals:
        image = Ideal.from_basis(ring, side, [project(b) for b in ideal.basis])
        ring._extra[("colength", side, image.key)] = parent._extra[("colength", side, ideal.key)]
        carried.append(image)
    return sorted(carried, key=lambda i: i.key), True


def _principal_lattice(ring: FiniteRing, side: str, caps: Caps):
    """The `side` lattice from principal ideals: the product of the
    component lattices (`_product_lattice`) when there are several, it is
    exact and within `caps.ideal_count`, else the join closure of the
    principal ideals of every element of R (for one component, its own
    closure), exhaustive or flagged as `ideal_lattice` decides.  Every
    member of an exhaustive lattice gets its colength in the memo."""
    several = exact_lattice(ring, caps) and len(ring.primary_components()) > 1
    members = _product_lattice(ring, side, caps) if several else None
    if members is None:
        above: dict = {}
        ideals, exhaustive = ideal_lattice(
            ring, side, lambda x: principal_ideal(ring, x, side), 17, caps, above)
        if not exhaustive:
            return ideals, False
        colength = _colengths(ideals, above)
        members = [(ideal.sub, colength[ideal.key]) for ideal in ideals]
    ring._extra.update(((("colength", side, sub.key), n) for sub, n in members))
    return [Ideal(ring, side, sub) for sub, _ in members], True


def _product_lattice(ring: FiniteRing, side: str, caps: Caps):
    """(I, len(R/I)) for the sided ideals I = ⊕_p I_p of R, sorted by key,
    with len(R/I) = Σ_p len(R_p/I_p); None when the lattice of some R_p, or
    their product, has more than `caps.ideal_count` members.

    Each component lattice is the join closure of the principal ideals of
    the elements of R_p, closed on R, and gives every member its colength
    in R_p (`_colengths`); the product joins one member of each.
    """
    members = [(Subgroup.zero(ring.additive), 0)]
    for p, _ in ring.primary_components():
        above: dict = {}
        subs, exhaustive = join_closure(
            (principal_ideal(ring, x, side).sub for x in _component_elements(ring, p)),
            caps.ideal_count, above)
        if not exhaustive or len(members) * len(subs) > caps.ideal_count:
            return None
        colength = _colengths(subs, above)
        members = [(sub.join(part), n + colength[part.key])
                   for sub, n in members for part in subs]
    return sorted(members, key=lambda m: m[0].key)


def _component_elements(ring: FiniteRing, p: int):
    """The elements of R_p, those killed by a power of p: in each cyclic
    factor Z/d, the multiples of d/p^k for p^k the p-part of d; in
    lexicographic coordinate order, so all of R's when R = R_p."""
    steps = []
    for d in ring.cyclic_orders:
        while d % p == 0:
            d //= p
        steps.append(d)
    return itertools.product(*(range(0, d, s) for d, s in zip(ring.cyclic_orders, steps)))


def _colengths(members, above: dict) -> dict:
    """len(T/I) by key for every member I of an exhaustive lattice of
    sided ideals with largest member T, given the keys of the joins
    I + principal(y) strictly above each I.

    Sided ideals are the submodules of R as an R¹-module, a modular lattice,
    so every maximal chain between two members has the same length (the
    Jordan–Dedekind chain condition): len(T/J) < len(T/I) for J ⊋ I, with
    len(T/I) = 1 + len(T/C) for a cover C.  Every cover of I is one of
    those joins (see `cover`), so len(T/I) is 1 + the largest colength
    among them, and 0 for T, which has none; larger ideals go first.
    """
    colength: dict = {}
    for member in sorted(members, key=lambda m: -m.size):
        colength[member.key] = 1 + max((colength[k] for k in above[member.key]), default=-1)
    return colength


def exhaustive_ideals(ring: FiniteRing, side: str, caps: Caps):
    """The sided ideal lattice when it is exhaustive, else None; a sampled
    lattice is not built for this."""
    if not exact_lattice(ring, caps):
        return None
    ideals, exhaustive = enumerate_ideals(ring, side, caps)
    return ideals if exhaustive else None


def exact_lattice(ring: FiniteRing, caps: Caps) -> bool:
    """Whether the ideal lattices of `ring` are exact, not sampled."""
    return ring.order <= caps.exhaustive_ideal_order


def ideal_lattice(ring: FiniteRing, side: str, ideal_from, salt: int, caps: Caps,
                  above: dict | None = None):
    """(joins of the ideals `ideal_from(x)` over all x, sorted, exhaustive);
    `above` is filled as in `join_closure`.

    Above `caps.exhaustive_ideal_order` it is a flagged sample of those
    ideals instead, drawn from a generator seeded by the order, `salt` and
    the side.
    """
    if not exact_lattice(ring, caps):
        rng = random.Random(ring.order * salt + len(side))
        elems = list(itertools.islice(ring.elements(), 4096))
        base = [ideal_from(rng.choice(elems)) for _ in range(caps.sample_count)]
        base.append(generated_ideal(ring, [], side))
        return sorted({i.key: i for i in base}.values(), key=lambda i: i.key), False
    subs, exhaustive = join_closure((ideal_from(x).sub for x in ring.elements()),
                                    caps.ideal_count, above)
    return [Ideal(ring, side, s) for s in subs], exhaustive


def minimal_ideals(ring: FiniteRing, side: str, caps: Caps = DEFAULT_CAPS):
    """Atoms of the sided ideal lattice, sorted by key: on an exhaustive
    lattice its members of length 1, whose colength is one less than that
    of zero; otherwise the minimal nonzero principal ideals
    (`minimal_closures`)."""
    ideals = exhaustive_ideals(ring, side, caps)
    if ideals is None:
        atoms = minimal_closures(ring.additive, lambda x: principal_ideal(ring, x, side).sub)
        return [Ideal(ring, side, s) for s in atoms]
    shared = shared_side(ring, side)
    atom = ring._extra[("colength", shared, ring.additive.relations)] - 1
    return [ideal for ideal in ideals if ring._extra[("colength", shared, ideal.key)] == atom]


@dataclass
class UdimCertificate:
    value: int
    witness: list
    maximality: str          # "exhaustive" | "capped"
    side: str


def uniform_dimension(ring: FiniteRing, side: str,
                      caps: Caps = DEFAULT_CAPS) -> UdimCertificate:
    """Largest direct sum of nonzero sided ideals.

    A finite module is Artinian, so this is the length of its socle (the
    sum of the atoms): one greedy pass over the atoms finds a direct family
    spanning the socle, and no direct family is longer.  Above the
    exhaustive cap a greedy-with-restarts lower bound over sampled principal
    ideals is reported and flagged; below it a commutative ring has one
    certificate for all sides (`ring_core.sided`).
    """
    return sided(ring._extra, ("udim", caps), ring, side,
                 lambda s: _compute_uniform_dimension(ring, s, caps),
                 ring.order <= caps.udim_exhaustive_order)


def _compute_uniform_dimension(ring: FiniteRing, side: str, caps: Caps) -> UdimCertificate:
    if ring.order == 1:
        return UdimCertificate(0, [], "exhaustive", side)
    if ring.order > caps.udim_exhaustive_order:
        return _udim_greedy(ring, side, caps)
    family, span = _greedy_family(ring, minimal_ideals(ring, side, caps))
    if is_semisimple_artinian(ring) and span.size != ring.order:
        raise CrossCheckError(
            f"semisimple ring {ring.name} is not a direct sum of its atoms")
    cert = UdimCertificate(len(family), family, "exhaustive", side)
    _verify_udim_witness(ring, cert)
    return cert


def _greedy_family(ring: FiniteRing, ideals):
    """(the ideals taken in order whenever the sum stays direct, their sum).

    A ∩ B = 0 iff |A + B| = |A|·|B|, so the join decides directness.
    """
    span = Subgroup.zero(ring.additive)
    family = []
    for ideal in ideals:
        joined = span.join(ideal.sub)
        if joined.size == span.size * ideal.size:
            family.append(ideal)
            span = joined
    return family, span


def _verify_udim_witness(ring: FiniteRing, cert: UdimCertificate) -> None:
    span = Subgroup.zero(ring.additive)
    for ideal in cert.witness:
        joined = span.join(ideal.sub)
        if ideal.is_zero() or joined.size != span.size * ideal.size:
            raise CrossCheckError(
                f"udim witness on {ring.name} is not a direct sum of nonzero ideals")
        span = joined


def _udim_greedy(ring: FiniteRing, side: str, caps: Caps) -> UdimCertificate:
    rng = random.Random(ring.order * 1009 + len(side))
    elems = list(itertools.islice(ring.elements(), 4096))
    best: list = []
    for _ in range(8):
        rng.shuffle(elems)
        family, _ = _greedy_family(ring, (principal_ideal(ring, x, side)
                                          for x in elems[:caps.sample_count]
                                          if x != ring.zero))
        if len(family) > len(best):
            best = family
    cert = UdimCertificate(len(best), best, "capped", side)
    _verify_udim_witness(ring, cert)
    return cert


# -- regular elements and the degenerate quotient ring ------------------------------

def regular_elements_quotient(ring: FiniteRing) -> str:
    """The quotient status: "equals-ring" when R has an identity, else
    "degenerate-undefined".

    A finite ring is Goldie (finite lattices give both chain conditions).
    Let r be regular, so r·R = R = R·r and x ↦ r·x, x ↦ x·r are injective,
    R being finite.  Then r·e = r for some e, and r·(e·x − x) = 0 gives
    e·x = x; the right side gives an f with x·f = x, and e = e·f = f.  So a
    finite ring with a regular element is unital, and in a unital finite
    ring the regular elements are the units: the quotient ring is R.  If R
    is unital, every g fixes 1_R, which is then R^G's identity, so Reg(R^G)
    = U(R^G) ⊆ U(R) = Reg(R).  If not, Reg(R) = ∅, and the fixed-ring
    regular elements that escape are U(R^G) when R^G is unital, else none.
    Each identity was checked when its ring was built (`checked_identity`;
    the fixed ring's image gets 1_R as its identity hint).
    """
    return "equals-ring" if ring.is_unital else "degenerate-undefined"


# -- finite modules and composition length -------------------------------------------

class FiniteModule:
    """A finite sided module over a finite ring, given by an action table.

    Submodule generation uses the unitalization convention, so a generator
    always lies in the submodule it generates.  The action is validated
    associative on generators, so a submodule is one span: the generators
    and their images under the ring generators.
    """

    def __init__(self, ring: FiniteRing, side: str, add: AdditiveGroup, action):
        if side not in (LEFT, RIGHT):
            raise RingError("module side must be left or right")
        self.ring = ring
        self.side = side
        self.add_group = add
        self.action = tuple(tuple(add.reduce(v) for v in row) for row in action)
        self.size = add.order
        self._validate()

    def _validate(self) -> None:
        """The action is well defined and associative on generators."""
        ring, add = self.ring, self.add_group
        if len(self.action) != ring.rank or any(
                len(row) != add.rank for row in self.action):
            raise RingError("action table has wrong shape")
        for i in range(ring.rank):
            for j in range(add.rank):
                v = self.action[i][j]
                if any(add.smul(ring.cyclic_orders[i], v)):
                    raise RingError("action not killed by scalar order")
                if any(add.smul(add.cyclic_orders[j], v)):
                    raise RingError("action not killed by module order")
        for a in range(ring.rank):
            for b in range(ring.rank):
                sc = (ring.mul_table[a][b] if self.side == LEFT
                      else ring.mul_table[b][a])
                for j in range(add.rank):
                    lhs = self._act_vec(sc, add.generator(j))
                    rhs = self._act_vec(ring.generator(a),
                                        self._act_vec(ring.generator(b), add.generator(j)))
                    if lhs != rhs:
                        raise RingError("module action is not associative")

    def _act_vec(self, s: Element, m: Element) -> Element:
        add = self.add_group
        out = add.zero
        for i, si in enumerate(s):
            if si:
                for j, mj in enumerate(m):
                    if mj:
                        out = add.add(out, add.smul(si * mj, self.action[i][j]))
        return out

    def submodule(self, gens) -> Subgroup:
        sub = Subgroup.from_generators(self.add_group, gens)
        return sub.extend([self._act_vec(s, m) for m in sub.basis
                           for s in self.ring.generators()])

    def minimal_submodules(self) -> list[Subgroup]:
        return minimal_closures(self.add_group, lambda x: self.submodule([x]))


def module_length(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> int:
    """Composition length: the length of a chain of submodules climbed from
    zero one cover at a time."""
    if module.size > caps.module_order:
        raise SizeCap(f"module of size {module.size} exceeds the cap")
    return chain_length(Subgroup.zero(module.add_group), lambda x: module.submodule([x]))


def quotient_length(ring: FiniteRing, side: str, sub: Subgroup,
                    caps: Caps = DEFAULT_CAPS) -> int | None:
    """Composition length of the sided module R/sub, or None when it is
    larger than `caps.module_order`; RingError unless `sub` is a sided ideal.

    It is read from the ring's colength memo, one for all sides on a
    commutative ring (`shared_side`).  An exhaustive ideal lattice has put
    every sided ideal there (`enumerate_ideals`), so an ideal missing from
    it is no ideal; under a sampled or capped lattice `_colength` climbs
    one cover at a time from `sub` towards R.
    """
    shared = shared_side(ring, side)
    memo = ("colength", shared, sub.key)
    if memo not in ring._extra:
        exhaustive = exhaustive_ideals(ring, shared, caps) is not None
        if memo not in ring._extra and (
                exhaustive or not Ideal(ring, shared, sub).verify_closure()):
            raise RingError(f"{sub} is not a {side} ideal of {ring.name}")
    if ring.order // sub.size > caps.module_order:
        return None
    return _colength(ring, shared, sub)


def _colength(ring: FiniteRing, side: str, sub: Subgroup) -> int:
    """len(R/sub) for a sided ideal sub, memoized on the ring by (side, key);
    a climb is left only when no exhaustive lattice has filled the memo.

    The climb stops at the first ideal whose colength is known: for any
    cover C of an ideal I, C/I is simple, so by Jordan–Hölder
    len(R/I) = 1 + len(R/C), and every ideal on the way gets its colength.
    """
    chain, top = [], None
    while ("colength", side, sub.key) not in ring._extra and sub.size < ring.order:
        if top is None:
            top = Subgroup.from_generators(ring.additive, ring.additive.generators)
        chain.append(sub.key)
        sub = cover(sub, top, lambda x: principal_ideal(ring, x, side).sub)
    length = ring._extra.get(("colength", side, sub.key), 0)
    for key in reversed(chain):
        length += 1
        ring._extra[("colength", side, key)] = length
    return length
