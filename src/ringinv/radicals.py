"""Radical and structure theory of finite rings.

The prime radical (largest nilpotent ideal) and the Jacobson radical
(quasi-regularity) are computed by genuinely independent algorithms; their
agreement on finite rings is asserted whenever a profile is built, never
assumed.  Uniform dimension, regular elements, annihilators, and composition
lengths of finite modules round out the structure data the checkers need.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial

from .caps import Caps, DEFAULT_CAPS
from .ring_core import (
    LEFT,
    RIGHT,
    TWOSIDED,
    AdditiveGroup,
    AdditiveMap,
    Coordinates,
    Element,
    FiniteRing,
    Ideal,
    RingError,
    Subgroup,
    atom_below,
    cached,
    close_subgroup,
    generated_ideal,
    inverse,
    join_closure,
    minimal_closures,
)


class SizeCap(RingError):
    pass


class CrossCheckError(RingError):
    pass


# -- nilpotency ------------------------------------------------------------------

def nilpotency_index(ring: FiniteRing, sub: Subgroup | None = None) -> int | None:
    """Least k with the k-fold product span zero; None when it stabilizes
    at a nonzero value (descending chains of ideal powers must stabilize)."""
    if sub is None:
        sub = Subgroup.from_generators(ring.additive, ring.generators())
    if sub.is_zero():
        return 1
    current = sub
    k = 1
    while True:
        nxt = ring.power_of_subgroup(sub, current)
        k += 1
        if nxt.is_zero():
            return k
        if nxt == current:
            return None
        current = nxt


# -- principal ideals, cached on the ring -----------------------------------------

def principal_ideal(ring: FiniteRing, x: Element, side: str) -> Ideal:
    return cached(ring._extra, ("principal", side, x),
                  lambda: generated_ideal(ring, [x], side))


# -- the two radicals --------------------------------------------------------------

def prime_radical(ring: FiniteRing) -> Ideal:
    """Largest nilpotent ideal: elements whose principal two-sided ideal is
    nilpotent.  The result is verified to be a nilpotent two-sided ideal."""
    return cached(ring._extra, "prime_radical", lambda: _compute_prime_radical(ring))


def _compute_prime_radical(ring: FiniteRing) -> Ideal:
    members = []
    for x in ring.elements():
        ideal = principal_ideal(ring, x, TWOSIDED)
        if nilpotency_index(ring, ideal.sub) is not None:
            members.append(x)
    out = Ideal.from_basis(ring, TWOSIDED, members, verify=True)
    if nilpotency_index(ring, out.sub) is None:
        raise CrossCheckError(f"prime radical of {ring.name} is not nilpotent")
    return out


def is_quasi_regular(ring: FiniteRing, y: Element) -> bool:
    """Left quasi-regularity: some z satisfies z + y + z*y = 0."""
    return cached(ring._extra, ("qr", y), lambda: any(
        ring.add(ring.add(z, y), ring.mul(z, y)) == ring.zero for z in ring.elements()))


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Quasi-regularity radical: x belongs iff every member of the left ideal
    generated by x (unitalization convention) is left quasi-regular."""
    return cached(ring._extra, "jacobson_radical", lambda: _compute_jacobson_radical(ring))


def _compute_jacobson_radical(ring: FiniteRing) -> Ideal:
    members = []
    for x in ring.elements():
        ideal = principal_ideal(ring, x, LEFT)
        if all(is_quasi_regular(ring, y) for y in ideal.elements()):
            members.append(x)
    return Ideal.from_basis(ring, TWOSIDED, members, verify=True)


@dataclass
class RadicalProfile:
    prime_radical: Ideal
    jacobson_radical: Ideal
    nilpotency_index_of_rad: int
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
    idx = nilpotency_index(ring, rad.sub)
    if idx is None:
        raise CrossCheckError(f"radical of {ring.name} is not nilpotent")
    return RadicalProfile(
        prime_radical=nil,
        jacobson_radical=rad,
        nilpotency_index_of_rad=idx,
        semiprime=nil.is_zero(),
        semisimple_artinian=rad.is_zero(),
    )


def is_semiprime(ring: FiniteRing) -> bool:
    return prime_radical(ring).is_zero()


def is_semisimple_artinian(ring: FiniteRing) -> bool:
    return jacobson_radical(ring).is_zero()


# -- ideal lattices -----------------------------------------------------------------

def enumerate_ideals(ring: FiniteRing, side: str, caps: Caps = DEFAULT_CAPS):
    """All sided ideals (join closure of the principal ones), or a flagged
    sample when the ring or the lattice outgrows the caps."""
    return cached(ring._extra, ("ideals", side, caps), lambda: ideal_lattice(
        ring, side, lambda x: principal_ideal(ring, x, side), 17, caps))


def ideal_lattice(ring: FiniteRing, side: str, ideal_from, salt: int, caps: Caps):
    """(joins of the ideals `ideal_from(x)` over all x, sorted, exhaustive).

    Above `caps.exhaustive_ideal_order` it is a flagged sample of those
    ideals instead, drawn from a generator seeded by the order and `salt`.
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
    atoms = minimal_closures(ring.elements(),
                             lambda x: principal_ideal(ring, x, side).sub)
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

    A maximal independent family can always be chosen among the atoms, so
    the search is branch-and-bound over atoms.  Above the exhaustive cap a
    greedy-with-restarts lower bound is reported and flagged.
    """
    return cached(ring._extra, ("udim", side, caps),
                  lambda: _compute_uniform_dimension(ring, side, caps))


def _compute_uniform_dimension(ring: FiniteRing, side: str, caps: Caps) -> UdimCertificate:
    if ring.order == 1:
        return UdimCertificate(0, [], "exhaustive", side)
    if ring.order > caps.udim_exhaustive_order:
        return _udim_greedy(ring, side, caps)
    atoms = minimal_ideals(ring, side, caps)
    best: list = []

    def extend(start: int, family: list, span: Subgroup):
        nonlocal best
        if len(family) > len(best):
            best = family[:]
        remaining_room = (ring.order // span.size).bit_length() - 1
        if len(family) + remaining_room <= len(best):
            return
        for idx in range(start, len(atoms)):
            atom = atoms[idx]
            if span.intersect(atom.sub).is_zero():
                extend(idx + 1, family + [atom], span.join(atom.sub))

    extend(0, [], Subgroup.zero(ring.additive))
    cert = UdimCertificate(len(best), best, "exhaustive", side)
    _verify_udim_witness(ring, cert)
    if is_semisimple_artinian(ring):
        greedy = _greedy_semisimple_count(ring, side, atoms)
        if greedy != cert.value:
            raise CrossCheckError(
                f"udim disagrees with the semisimple decomposition on "
                f"{ring.name}: {cert.value} vs {greedy}")
    return cert


def _verify_udim_witness(ring: FiniteRing, cert: UdimCertificate) -> None:
    span = Subgroup.zero(ring.additive)
    for ideal in cert.witness:
        if ideal.is_zero() or not span.intersect(ideal.sub).is_zero():
            raise CrossCheckError(
                f"udim witness on {ring.name} is not a direct sum of nonzero ideals")
        span = span.join(ideal.sub)


def _greedy_semisimple_count(ring: FiniteRing, side: str, atoms) -> int:
    span = Subgroup.zero(ring.additive)
    count = 0
    for atom in atoms:
        if span.intersect(atom.sub).is_zero():
            span = span.join(atom.sub)
            count += 1
    if span.size != ring.order:
        raise CrossCheckError(
            f"semisimple ring {ring.name} is not a direct sum of its atoms")
    return count


def _udim_greedy(ring: FiniteRing, side: str, caps: Caps) -> UdimCertificate:
    rng = random.Random(ring.order * 1009 + len(side))
    elems = list(itertools.islice(ring.elements(), 4096))
    best: list = []
    for _ in range(8):
        rng.shuffle(elems)
        span = Subgroup.zero(ring.additive)
        family = []
        for x in elems[:caps.sample_count]:
            if x == ring.zero:
                continue
            ideal = principal_ideal(ring, x, side)
            if span.intersect(ideal.sub).is_zero():
                family.append(ideal)
                span = span.join(ideal.sub)
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
    regular = [r for r in ring.elements()
               if _multiplication_kernel(ring, [r], LEFT).is_zero()
               and _multiplication_kernel(ring, [r], RIGHT).is_zero()]
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


def _multiplication_kernel(ring: FiniteRing, rs, side: str) -> Subgroup:
    """The kernel of x ↦ (r·x)_r (LEFT) or x ↦ (x·r)_r (RIGHT), r in `rs`."""
    images = [sum((ring.mul(r, g) if side == LEFT else ring.mul(g, r) for r in rs), ())
              for g in ring.generators()]
    values = AdditiveGroup(ring.cyclic_orders * len(rs))
    return AdditiveMap(ring.additive, images, values.lattice_rows()).kernel


def left_annihilator(ring: FiniteRing, xs) -> Ideal:
    """Elements r with r*x = 0 for every x in the set; a left ideal: the
    kernel of r ↦ (r·b)_b over a basis of the span of the set."""
    basis = Subgroup.from_generators(ring.additive, xs).basis
    return Ideal.from_basis(ring, LEFT, _multiplication_kernel(ring, basis, RIGHT).basis,
                            verify=True)


# -- finite modules and composition length -------------------------------------------

class FiniteModule:
    """A finite sided module over a finite ring, given by an action table.

    Submodule generation uses the unitalization convention, so a generator
    always lies in the submodule it generates.
    """

    def __init__(self, ring: FiniteRing, side: str, add: AdditiveGroup, action,
                 name: str = "M", validate: bool = True):
        if side not in (LEFT, RIGHT):
            raise RingError("module side must be left or right")
        self.ring = ring
        self.side = side
        self.add_group = add
        self.action = tuple(tuple(add.reduce(v) for v in row) for row in action)
        self.name = name
        self.size = add.order
        if validate:
            self._validate()

    def _validate(self) -> None:
        self._validate_table()
        ring, add = self.ring, self.add_group
        for a in range(ring.rank):
            for b in range(ring.rank):
                sc = (ring.mul_table[a][b] if self.side == LEFT
                      else ring.mul_table[b][a])
                for j in range(add.rank):
                    lhs = self._act_vec(sc, self.add_group.generator(j))
                    rhs = self._act_vec(ring.generator(a),
                                        self._act_vec(ring.generator(b),
                                                      self.add_group.generator(j)))
                    if lhs != rhs:
                        raise RingError("module action is not associative")

    def _validate_table(self) -> None:
        """Shape and orders: the action is well defined on generators."""
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

    def _act_vec(self, s: Element, m: Element) -> Element:
        add = self.add_group
        out = add.zero
        for i, si in enumerate(s):
            if si:
                for j, mj in enumerate(m):
                    if mj:
                        out = add.add(out, add.smul(si * mj, self.action[i][j]))
        return out

    def act(self, s: Element, m: Element) -> Element:
        """s·m for left modules, m·s for right modules (s is a ring element)."""
        return self._act_vec(s, m)

    def submodule(self, gens) -> Subgroup:
        maps = [partial(self._act_vec, s) for s in self.ring.generators()]
        return close_subgroup(self.add_group, gens, maps)

    def quotient(self, sub: Subgroup) -> "FiniteModule":
        """Quotient by a submodule, with the projection checked to be a
        module map (so the quotient needs no associativity check)."""
        coords = Coordinates(self.add_group, sub.key)
        scalars = self.ring.generators()
        action = [[coords.project(self._act_vec(s, g)) for g in coords.generators]
                  for s in scalars]
        out = FiniteModule(self.ring, self.side, coords.image, action,
                           name=f"{self.name}/sub", validate=False)
        out._validate_table()
        coords.check(self._act_vec, out._act_vec, scalars=scalars)
        return out

    def minimal_submodules(self) -> list[Subgroup]:
        return minimal_closures(self.add_group.elements(),
                                lambda x: self.submodule([x]))


def ring_as_module(ring: FiniteRing, side: str,
                   scalars: FiniteRing | None = None, embed=None) -> FiniteModule:
    """The ring as a module over itself or over an embedded scalar ring.

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
    return FiniteModule(scalars, side, ring.additive, action, name=ring.name)


def module_length(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> int:
    """Composition length, splitting off one minimal submodule each step.

    The minimal submodule is reached by descent from the cyclic submodule of
    the first generator; by Jordan–Hölder the length does not depend on
    which one is split off.
    """
    if module.size > caps.module_order:
        raise SizeCap(f"module of size {module.size} exceeds the cap")
    length = 0
    current = module
    while current.size > 1:
        cyclic = lambda x, m=current: m.submodule([x])  # noqa: E731
        atom = atom_below(cyclic(current.add_group.generator(0)), cyclic)
        current = current.quotient(atom)
        length += 1
    return length


def quotient_length(ring: FiniteRing, side: str, sub: Subgroup,
                    caps: Caps = DEFAULT_CAPS) -> int | None:
    """Composition length of the sided module R/sub (sub a sided ideal), or
    None when it is larger than `caps.module_order`.

    Cached on the ring; the ring as a module over itself is built and
    validated once per side.
    """
    def compute():
        module = cached(ring._extra, ("module", side), lambda: ring_as_module(ring, side))
        try:
            return module_length(module.quotient(sub), caps)
        except SizeCap:
            return None
    return cached(ring._extra, ("quotient_length", side, sub.key, caps), compute)
