"""Radical and structure theory of finite rings.

The prime radical (largest nilpotent ideal) and the Jacobson radical
(quasi-regularity) are computed by genuinely independent algorithms; their
agreement on finite rings is checked whenever a profile is built, never
assumed.  Principal ideals are closed once per cyclic subgroup: the
generators of <x> all generate the ideal x does.  Both radicals decide each
distinct principal ideal once: the prime radical by one nilpotency test per
two-sided principal ideal, the Jacobson radical by one verdict per principal
left ideal, where quasi-regularity of an element is one preimage solve of an
additive map.  Uniform dimension, regular elements (by the sizes of r·R and
R·r), and composition lengths of finite modules round out the structure
data the checkers need.  On a commutative ring each exact sided product here
is computed once for all three sides (`ring_core.shared_side`), so the two
radicals share their principal closures and r·R = R·r is sized once.
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
    AdditiveMap,
    Element,
    FiniteRing,
    Ideal,
    RingError,
    Subgroup,
    cached,
    chain_length,
    generated_ideal,
    inverse,
    join_closure,
    minimal_closures,
    shared_side,
)


class SizeCap(RingError):
    pass


class CrossCheckError(RingError):
    pass


# -- nilpotency ------------------------------------------------------------------

def nilpotency_index(ring: FiniteRing, sub: Subgroup | None = None) -> int | None:
    """Least k with the k-fold product span zero (of the whole ring by
    default); None when a nonzero power repeats, so none ever vanishes."""
    if sub is None:
        sub = Subgroup.from_generators(ring.additive, ring.generators())
    return ring.power_chain(sub)[0]


# -- principal ideals, cached on the ring -----------------------------------------

def principal_ideal(ring: FiniteRing, x: Element, side: str) -> Ideal:
    """The sided ideal x generates, closed once per cyclic subgroup.

    With o the additive order of x, every k·x with gcd(k, o) = 1 generates
    the same ideal (x is a multiple of it), so one closure fills them all.
    On a commutative ring one closure serves all three sides.
    """
    shared = shared_side(ring, side)

    def compute():
        ideal = generated_ideal(ring, [x], shared)
        o = lcm(*(d // gcd(c, d) for c, d in zip(x, ring.cyclic_orders)))
        for k in range(2, o):
            if gcd(k, o) == 1:
                ring._extra[("principal", shared, ring.smul(k, x))] = ideal
        return ideal
    return cached(ring._extra, ("principal", shared, x), compute).on_side(side)


# -- the two radicals --------------------------------------------------------------

def prime_radical(ring: FiniteRing) -> Ideal:
    """Largest nilpotent ideal: elements whose principal two-sided ideal is
    nilpotent.  The result is verified to be a nilpotent two-sided ideal."""
    return cached(ring._extra, "prime_radical", lambda: _compute_prime_radical(ring))


def _compute_prime_radical(ring: FiniteRing) -> Ideal:
    members, verdicts = set(), {}
    for x in ring.elements():
        if x in members:
            continue
        ideal = principal_ideal(ring, x, TWOSIDED)
        if cached(verdicts, ideal.key,
                  lambda: nilpotency_index(ring, ideal.sub) is not None):
            # every y in a nilpotent ideal generates a nilpotent subideal
            members.update(ideal.elements())
    out = Ideal.from_basis(ring, TWOSIDED, members)
    if nilpotency_index(ring, out.sub) is None:
        raise CrossCheckError(f"prime radical of {ring.name} is not nilpotent")
    return out


def is_quasi_regular(ring: FiniteRing, y: Element) -> bool:
    """Left quasi-regularity: some z satisfies z + y + z*y = 0.

    z ↦ z + z·y is additive, so one preimage solve of −y decides it; the
    quasi-inverse it returns is checked before it is believed.
    """
    return cached(ring._extra, ("qr", y), lambda: _solve_quasi_inverse(ring, y))


def _solve_quasi_inverse(ring: FiniteRing, y: Element) -> bool:
    images = [ring.add(g, ring.mul(g, y)) for g in ring.generators()]
    z = AdditiveMap(ring.additive, images, ring.additive.relations).preimage(ring.neg(y))
    if z is None:
        return False
    if ring.add(ring.add(z, y), ring.mul(z, y)) != ring.zero:
        raise CrossCheckError(f"quasi-inverse of {y} in {ring.name} does not check")
    return True


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Quasi-regularity radical: x belongs iff every member of the left ideal
    generated by x (unitalization convention) is left quasi-regular.

    Each element costs one preimage solve, and each distinct principal left
    ideal one verdict: an ideal holding a known non-quasi-regular element
    fails without a scan, and a passing ideal puts all its elements in.
    """
    return cached(ring._extra, "jacobson_radical", lambda: _compute_jacobson_radical(ring))


def _compute_jacobson_radical(ring: FiniteRing) -> Ideal:
    members, witnesses, verdicts = set(), [], {}

    def passes(ideal: Ideal) -> bool:
        if any(ideal.contains(w) for w in witnesses):
            return False
        for y in ideal.sub:
            if not is_quasi_regular(ring, y):
                witnesses.append(y)
                return False
        return True

    for x in ring.elements():
        if x in members:
            continue
        ideal = principal_ideal(ring, x, LEFT)
        if cached(verdicts, ideal.key, lambda: passes(ideal)):
            # R¹y ⊆ R¹x for every y in R¹x, so each of them passes too
            members.update(ideal.elements())
    return Ideal.from_basis(ring, TWOSIDED, members)


@dataclass
class RadicalProfile:
    prime_radical: Ideal
    jacobson_radical: Ideal
    semiprime: bool
    semisimple_artinian: bool


def radical_profile(ring: FiniteRing) -> RadicalProfile:
    """Compute both radicals independently and insist that they agree."""
    nil = prime_radical(ring)
    rad = jacobson_radical(ring)
    if nil.sub != rad.sub:
        raise CrossCheckError(
            f"prime and Jacobson radicals disagree on {ring.name}: "
            f"{sorted(nil.elements())} vs {sorted(rad.elements())}")
    if nilpotency_index(ring, rad.sub) is None:
        raise CrossCheckError(f"radical of {ring.name} is not nilpotent")
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
    sample when the ring or the lattice outgrows the caps."""
    return sided_lattice(ring._extra, ("ideals", caps), ring, side, caps, lambda s: (
        ideal_lattice(ring, s, lambda x: principal_ideal(ring, x, s), 17, caps)))


def lattice_side(ring: FiniteRing, side: str, caps: Caps) -> str:
    """The side whose ideal lattice serves `side` (`shared_side`): a lattice
    is exact up to `caps.exhaustive_ideal_order` and sampled above it."""
    return shared_side(ring, side, ring.order <= caps.exhaustive_ideal_order)


def sided_lattice(store: dict, key, ring: FiniteRing, side: str, caps: Caps, compute):
    """`compute(s)` for s the `lattice_side` of `side`, cached in `store`
    under (key, s), with its ideals relabelled with `side`."""
    shared = lattice_side(ring, side, caps)
    ideals, exhaustive = cached(store, (key, shared), lambda: compute(shared))
    if shared != side:
        ideals = [ideal.on_side(side) for ideal in ideals]
    return ideals, exhaustive


def ideal_lattice(ring: FiniteRing, side: str, ideal_from, salt: int, caps: Caps):
    """(joins of the ideals `ideal_from(x)` over all x, sorted, exhaustive).

    Above `caps.exhaustive_ideal_order` it is a flagged sample of those
    ideals instead, drawn from a generator seeded by the order, `salt` and
    the side.
    """
    if ring.order > caps.exhaustive_ideal_order:
        rng = random.Random(ring.order * salt + len(side))
        elems = list(itertools.islice(ring.elements(), 4096))
        base = [ideal_from(rng.choice(elems)) for _ in range(caps.sample_count)]
        base.append(generated_ideal(ring, [], side))
        return sorted({i.key: i for i in base}.values(), key=lambda i: i.key), False
    subs, exhaustive = join_closure((ideal_from(x).sub for x in ring.elements()),
                                    caps.ideal_count)
    return [Ideal(ring, side, s) for s in subs], exhaustive


def minimal_ideals(ring: FiniteRing, side: str, caps: Caps = DEFAULT_CAPS):
    """Atoms of the sided ideal lattice: minimal nonzero principal ideals."""
    atoms = minimal_closures(ring.additive, lambda x: principal_ideal(ring, x, side).sub)
    return [Ideal(ring, side, s) for s in atoms]


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
    certificate for all sides (`shared_side`).
    """
    shared = shared_side(ring, side, ring.order <= caps.udim_exhaustive_order)
    cert = cached(ring._extra, ("udim", shared, caps),
                  lambda: _compute_uniform_dimension(ring, shared, caps))
    if shared == side:
        return cert
    return UdimCertificate(cert.value, [ideal.on_side(side) for ideal in cert.witness],
                           cert.maximality, side)


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

@dataclass
class RegularElements:
    regular: tuple
    goldie: bool
    quotient_status: str      # "equals-ring" | "degenerate-undefined"
    units: tuple | None
    regular_are_units: bool | None


def regular_elements_quotient(ring: FiniteRing) -> RegularElements:
    """Non-zero-divisors and the (degenerate) quotient ring situation.

    A finite ring is always Goldie (finite lattices give both chain
    conditions); in a finite unital ring regular elements are units, which
    collapses the quotient ring to the ring itself.
    """
    return cached(ring._extra, "regular", lambda: _compute_regular_elements(ring))


def _compute_regular_elements(ring: FiniteRing) -> RegularElements:
    # R is finite, so x ↦ r·x is injective iff r·R = R, and likewise on the
    # right; on a commutative ring R·r is r·R
    gens = ring.generators()

    def onto(products) -> bool:
        return Subgroup.from_generators(ring.additive, products).size == ring.order
    regular = [r for r in ring.elements()
               if onto([ring.mul(r, g) for g in gens])
               and (ring.is_commutative or onto([ring.mul(g, r) for g in gens]))]
    if ring.is_unital:
        units = [r for r in ring.elements() if inverse(ring, r) is not None]
        regular_are_units = set(regular) == set(units)
        if not regular_are_units:
            raise CrossCheckError(
                f"regular elements of unital finite {ring.name} are not "
                f"exactly the units")
        return RegularElements(tuple(sorted(regular)), True, "equals-ring",
                               tuple(sorted(units)), True)
    return RegularElements(tuple(sorted(regular)), True,
                           "degenerate-undefined", None, None)


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

    It is the length of a chain of sided ideals climbed from `sub` to R one
    cover at a time.  Cached on the ring by ideal, `Caps` and side, one for
    all sides on a commutative ring (`shared_side`).
    """
    shared = shared_side(ring, side)

    def compute():
        if not Ideal(ring, shared, sub).verify_closure():
            raise RingError(f"{sub} is not a {side} ideal of {ring.name}")
        if ring.order // sub.size > caps.module_order:
            return None
        return chain_length(sub, lambda x: principal_ideal(ring, x, shared).sub)
    return cached(ring._extra, ("quotient_length", shared, sub.key, caps), compute)
