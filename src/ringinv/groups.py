"""Automorphism groups of a finite ring and the group theory the engine needs:
normal p-complements, the action induced on an invariant subquotient, the
combinatorial bound constant, and the fixed-point search for p-groups on
abelian p-groups.
"""

from __future__ import annotations

from math import comb, gcd

from .ring_core import (
    AdditiveMap,
    Element,
    FiniteRing,
    RingImage,
    Subgroup,
    SubringView,
    factorize,
)


class GroupError(Exception):
    pass


class InvalidAutomorphism(GroupError):
    pass


class GroupTooLarge(GroupError):
    def __init__(self, cap: int):
        super().__init__(f"group closure exceeded the cap {cap}")
        self.cap = cap


class NotDividing(GroupError):
    pass


class NotNormal(GroupError):
    pass


class NotFixedRing(GroupError):
    pass


class NotPGroup(GroupError):
    pass


class NotPModule(GroupError):
    pass


class RingAutomorphism:
    """An additive automorphism preserving multiplication, stored by images.

    Equality and ordering are on the image vector, which is canonical.
    """

    __slots__ = ("ring", "images", "_map")

    def __init__(self, ring: FiniteRing, images, validated: bool = False):
        self.ring = ring
        self.images = tuple(ring.additive.reduce(v) for v in images)
        self._map: dict | None = None
        if not validated:
            self._validate()

    def _validate(self) -> None:
        """Raise InvalidAutomorphism unless the images define an automorphism.

        Each image must be killed by its generator's order (so the map is
        well defined), the images must span the group (so it is onto, hence
        bijective), and products of generators must map to products of
        images (so, by biadditivity, it is multiplicative).  Images equal
        to the generators return at once: the identity map is an
        automorphism.
        """
        ring = self.ring
        if self.images == ring.generators():
            return
        if len(self.images) != ring.rank:
            raise InvalidAutomorphism("wrong number of generator images")
        for i, im in enumerate(self.images):
            if any(ring.smul(ring.cyclic_orders[i], im)):
                raise InvalidAutomorphism(
                    f"image of generator {i} is not killed by its order")
        if Subgroup.from_generators(ring.additive, self.images).size != ring.order:
            raise InvalidAutomorphism("images do not generate the additive group")
        for i in range(ring.rank):
            for j in range(ring.rank):
                if self.apply(ring.mul_table[i][j]) != ring.mul(
                        self.images[i], self.images[j]):
                    raise InvalidAutomorphism(
                        f"multiplication not preserved on generators ({i},{j})")

    def apply(self, x: Element) -> Element:
        cache = self._map
        if cache is None:
            cache = self._map = {}
        y = cache.get(x)
        if y is None:
            y = cache[x] = self.ring.additive.combine(x, self.images)
        return y

    def compose(self, other: "RingAutomorphism") -> "RingAutomorphism":
        """self after other: x -> self(other(x))."""
        return RingAutomorphism(
            self.ring, tuple(self.apply(v) for v in other.images), validated=True)

    def is_identity(self) -> bool:
        return all(im == self.ring.generator(i) for i, im in enumerate(self.images))

    def order(self) -> int:
        n = 1
        cur = self
        while not cur.is_identity():
            cur = cur.compose(self)
            n += 1
        return n

    def inverse(self) -> "RingAutomorphism":
        prev = identity_automorphism(self.ring)
        cur = self
        while not cur.is_identity():
            prev = cur
            cur = cur.compose(self)
        return prev

    def __eq__(self, other):
        return (isinstance(other, RingAutomorphism)
                and self.ring is other.ring and self.images == other.images)

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other: "RingAutomorphism") -> bool:
        return self.images < other.images

    def __repr__(self):
        return f"Aut{list(self.images)}"

    def __getstate__(self):
        return (self.ring, self.images)

    def __setstate__(self, state):
        self.ring, self.images = state
        self._map = None


def identity_automorphism(ring: FiniteRing) -> RingAutomorphism:
    return RingAutomorphism(ring, tuple(ring.generators()), validated=True)


class AutomorphismGroup:
    """A finite set of automorphisms closed under composition and inverse."""

    def __init__(self, ring: FiniteRing, elements, verified: bool = False):
        self.ring = ring
        self.elements: tuple[RingAutomorphism, ...] = tuple(sorted(set(elements)))
        if not self.elements:
            self.elements = (identity_automorphism(ring),)
        self.order = len(self.elements)
        self._index = {a.images: a for a in self.elements}
        if not verified:
            self._verify()

    def _verify(self) -> None:
        if identity_automorphism(self.ring).images not in self._index:
            raise GroupError("missing identity")
        for a in self.elements:
            for b in self.elements:
                if a.compose(b).images not in self._index:
                    raise GroupError("set is not closed under composition")

    def identity(self) -> RingAutomorphism:
        return self._index[identity_automorphism(self.ring).images]

    def contains(self, a: RingAutomorphism) -> bool:
        return a.images in self._index

    def is_subgroup(self, other: "AutomorphismGroup") -> bool:
        return all(other.contains(a) for a in self.elements)

    def is_normal_in(self, other: "AutomorphismGroup") -> bool:
        for g in other.elements:
            ginv = g.inverse()
            for h in self.elements:
                if g.compose(h).compose(ginv).images not in self._index:
                    return False
        return True

    def p_group_prime(self) -> int | None:
        """The unique prime when |G| is a nontrivial prime power, else None."""
        fac = factorize(self.order)
        if len(fac) == 1:
            return next(iter(fac))
        return None

    def left_cosets(self, sub: "AutomorphismGroup") -> list[list[RingAutomorphism]]:
        """Partition into left cosets g·N, each sorted, sorted by least member."""
        seen: set = set()
        cosets = []
        for g in self.elements:
            if g.images in seen:
                continue
            coset = sorted(g.compose(h) for h in sub.elements)
            for x in coset:
                seen.add(x.images)
            cosets.append(coset)
        cosets.sort(key=lambda c: c[0].images)
        return cosets

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"AutomorphismGroup(order={self.order})"


def close_group(gens, ring: FiniteRing | None = None, cap: int = 720) -> AutomorphismGroup:
    """Subgroup generated by the given automorphisms, by breadth-first closure."""
    gens = list(gens)
    if ring is None:
        if not gens:
            raise GroupError("need a ring for the empty generating set")
        ring = gens[0].ring
    for g in gens:
        if g.ring is not ring:
            raise GroupError("generators act on different rings")
    ident = identity_automorphism(ring)
    found = {ident.images: ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur.compose(g)
            if nxt.images not in found:
                if len(found) >= cap:
                    raise GroupTooLarge(cap)
                found[nxt.images] = nxt
                frontier.append(nxt)
    return AutomorphismGroup(ring, found.values(), verified=True)


def trivial_group(ring: FiniteRing) -> AutomorphismGroup:
    return AutomorphismGroup(ring, [identity_automorphism(ring)], verified=True)


def p_normal_complement(group: AutomorphismGroup, p: int) -> AutomorphismGroup | None:
    """The unique normal subgroup of order m where |G| = p^s·m, if it exists.

    It consists exactly of the elements of order coprime to p, so the census
    of element orders decides existence: the census must have size m, form
    a group (verified on construction), and be normal (the last is automatic
    for an order-defined set, but is verified anyway).
    """
    n = group.order
    if n % p:
        raise NotDividing(f"{p} does not divide the group order {n}")
    m = n
    while m % p == 0:
        m //= p
    census = [a for a in group.elements if gcd(a.order(), p) == 1]
    if len(census) != m:
        return None
    try:
        sub = AutomorphismGroup(group.ring, census)
    except GroupError:
        return None
    if not sub.is_normal_in(group):
        return None
    return sub


def h_constant(n: int) -> int:
    """The combinatorial bound constant: product of (C(n,i)+1) for i = 1..n."""
    if n < 1:
        raise ValueError("group order must be >= 1")
    out = 1
    for i in range(1, n + 1):
        out *= comb(n, i) + 1
    return out


def fixed_subgroup(ring: FiniteRing, automorphisms) -> Subgroup:
    """Elements fixed by every automorphism: the meet of the kernels of a - 1.

    It starts from the interned whole group (`AdditiveGroup.whole`), so
    under G = 1 the result is that object with no span taken.  Each kernel
    is taken on the meet so far (its Hermite key is the source), and an
    automorphism that fixes the current basis is skipped.
    """
    group = ring.additive
    fixed = group.whole
    for a in automorphisms:
        if all(a.apply(b) == b for b in fixed.basis):
            continue
        moved = [group.sub(a.apply(group.reduce(row)), group.reduce(row))
                 for row in fixed.key]
        fixed = AdditiveMap(group, moved, group.relations, sources=fixed.key).kernel
    return fixed


def fixed_ring(ring: FiniteRing, group: AutomorphismGroup) -> SubringView:
    """The subring of elements fixed by the whole group."""
    return SubringView(ring, fixed_subgroup(ring, group.elements))


def induced_action(group: AutomorphismGroup, image: RingImage,
                   normal: AutomorphismGroup | None = None) -> dict[tuple, RingAutomorphism]:
    """The automorphism of `image.ring` each g in G induces, keyed by
    `g.images`: y -> to_image(g(from_image(y))) on generators.

    The image is a subquotient G maps into itself (a fixed ring of a normal
    subgroup, a quotient by an invariant ideal).  Equal images share one
    validated automorphism.  With `normal`, every left coset g·N must
    induce one automorphism, or `GroupError` is raised: as g·h induces g's
    automorphism for every h in N exactly when every h in N induces the
    identity (take g = 1), that is what is checked.
    """
    ring = image.ring
    lifts = [image.from_image(y) for y in ring.generators()]
    shared: dict[tuple, RingAutomorphism] = {}
    out = {}
    for g in group.elements:
        images = tuple(image.to_image(g.apply(x)) for x in lifts)
        if images not in shared:
            shared[images] = RingAutomorphism(ring, images)
        out[g.images] = shared[images]
    if normal is not None:
        identity = identity_automorphism(ring)
        if any(out.get(h.images) != identity for h in normal.elements):
            raise GroupError("a coset of the normal subgroup induces more "
                             "than one automorphism")
    return out


def quotient_action(group: AutomorphismGroup, normal: AutomorphismGroup,
                    fixed: SubringView):
    """Action of the quotient group on the fixed subring of the normal part.

    Returns (induced_group, coset_map) where induced_group acts on the
    realized fixed ring and coset_map sends each original automorphism to the
    automorphism it induces (`induced_action`, which verifies that every
    coset induces one).
    """
    if not normal.is_subgroup(group) or not normal.is_normal_in(group):
        raise NotNormal("second group is not a normal subgroup of the first")
    expected = fixed_subgroup(group.ring, normal.elements)
    if expected != fixed.sub:
        raise NotFixedRing("given subring is not the fixed ring of the subgroup")
    image = fixed.image()
    coset_map = induced_action(group, image, normal)
    return AutomorphismGroup(image.ring, coset_map.values()), coset_map


def p_group_fixed_point(pgroup: AutomorphismGroup, module: Subgroup) -> Element | None:
    """A nonzero fixed element of a p-group acting on an abelian p-group.

    The module is an invariant additive subgroup of the ring the group acts
    on.  Returns the lexicographically least nonzero fixed element, or None
    when the module is zero (the only case where none exists).
    """
    p = pgroup.p_group_prime()
    if p is None:
        raise NotPGroup("group order is not a nontrivial prime power")
    if module.group.cyclic_orders != pgroup.ring.cyclic_orders:
        raise NotPModule("module does not live in the acted-on ring")
    if module.size == 1:
        return None
    fac = factorize(module.size)
    if set(fac) != {p}:
        raise NotPModule(f"module order {module.size} is not a power of {p}")
    for a in pgroup.elements:
        for b in module.basis:
            if not module.contains(a.apply(b)):
                raise NotPModule("subgroup is not invariant under the group")
    fixed = fixed_subgroup(pgroup.ring, pgroup.elements).intersect(module)
    if fixed.is_zero():
        raise GroupError("no nonzero fixed point found on a nonzero module")
    return min(x for x in fixed.elements() if any(x))
