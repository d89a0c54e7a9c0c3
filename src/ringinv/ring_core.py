"""Finite, possibly non-unital rings given by structure constants.

A ring lives on an additive group ⊕_i Z/d_i; elements are coordinate tuples
in canonical reduced form and multiplication is the bilinear extension of a
k×k table of generator products.  Ideals and subrings are additive subgroups
canonicalized by the Hermite form of their preimage lattice, so equality
tests never enumerate elements.

The structure theory rests on five primitives over those subgroups:
`AdditiveMap` (kernel and preimages of an additive map from one Hermite
form: intersections, fixed subgroups, identities, inverses, annihilators,
splittings), `close_subgroup` (closure under additive maps: sided ideals,
submodules), `join_closure` (lattices of ideals and subgroups),
`minimal_closures` and `atom_below` (atoms of such lattices), and
`Coordinates` (Smith-form coordinates on a subquotient: quotient rings,
quotient modules, subring images), whose one check proves the transported
structure correct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod
from typing import Callable, Iterable, Iterator

from .lattices import (
    hermite_form,
    in_hermite_span,
    invert_matrix,
    mat_mul,
    smith_form,
    vec_mat,
)

Element = tuple[int, ...]

# lazy multiplication cache is only kept for rings up to this order
MUL_CACHE_MAX_ORDER = 4096

LEFT = "left"
RIGHT = "right"
TWOSIDED = "twosided"
SIDES = (LEFT, RIGHT, TWOSIDED)


class RingError(Exception):
    """Base class for structural errors in ring construction."""


class IllDefined(RingError):
    def __init__(self, i: int, j: int):
        super().__init__(
            f"generator product ({i},{j}) is not annihilated by the "
            f"additive orders of its factors"
        )
        self.pair = (i, j)


class NonAssociative(RingError):
    def __init__(self, i: int, j: int, l: int):
        super().__init__(f"associativity fails on generator triple ({i},{j},{l})")
        self.triple = (i, j, l)


class NotUnital(RingError):
    pass


class WrongSide(RingError):
    pass


@dataclass(frozen=True)
class AdditiveGroup:
    """The additive carrier ⊕_i Z/d_i; every d_i >= 2."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        for d in self.cyclic_orders:
            if d < 2:
                raise ValueError(f"cyclic order {d} < 2")

    @cached_property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.cyclic_orders) if self.cyclic_orders else 1

    @cached_property
    def zero(self) -> Element:
        return (0,) * len(self.cyclic_orders)

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    def reduce(self, v: Iterable[int]) -> Element:
        return tuple(c % d for c, d in zip(v, self.cyclic_orders))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.cyclic_orders))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.cyclic_orders))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.cyclic_orders))

    def smul(self, n: int, x: Element) -> Element:
        return tuple((n * a) % d for a, d in zip(x, self.cyclic_orders))

    def combine(self, coeffs, vectors) -> Element:
        """Σ_i coeffs[i]·vectors[i], reduced."""
        terms = [(c, v) for c, v in zip(coeffs, vectors) if c]
        return self.reduce(sum(c * v[t] for c, v in terms) for t in range(self.rank))

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic coordinate order."""
        return itertools.product(*(range(d) for d in self.cyclic_orders))

    def generator(self, i: int) -> Element:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def lattice_rows(self) -> list[list[int]]:
        k = self.rank
        return [[self.cyclic_orders[i] if j == i else 0 for j in range(k)]
                for i in range(k)]


class Subgroup:
    """Additive subgroup of an AdditiveGroup, canonical under Hermite form.

    `key` is the full-rank Hermite form of the preimage lattice (generators
    plus the order relations); two subgroups are equal iff keys are equal.
    `basis` is the human-facing generating set: nonzero key rows reduced.
    """

    __slots__ = ("group", "key", "basis", "size", "_elements")

    def __init__(self, group: AdditiveGroup, key: tuple[tuple[int, ...], ...]):
        self.group = group
        self.key = key
        self.basis = tuple(
            r for r in (group.reduce(row) for row in key) if any(r)
        )
        det = prod(key[i][i] for i in range(len(key))) if key else 1
        self.size = group.order // det
        self._elements = None

    @classmethod
    def from_generators(cls, group: AdditiveGroup, gens: Iterable[Element]) -> "Subgroup":
        rows = [list(group.reduce(g)) for g in gens]
        rows.extend(group.lattice_rows())
        return cls(group, hermite_form(rows, group.rank))

    @classmethod
    def zero(cls, group: AdditiveGroup) -> "Subgroup":
        return cls.from_generators(group, ())

    def contains(self, x: Element) -> bool:
        return in_hermite_span(self.key, x)

    def __iter__(self) -> Iterator[Element]:
        """Each element once, lazily: Σ c_i·key_i over 0 <= c_i < d_i/key_ii.

        The key is triangular and its diagonal divides the orders, so these
        sums are distinct modulo the order lattice and there are `size` of
        them; they come in lexicographic order of (c_i).
        """
        add = self.group.add
        steps = [(self.group.reduce(row), d // row[i]) for i, (row, d)
                 in enumerate(zip(self.key, self.group.cyclic_orders)) if d // row[i] > 1]

        def walk(i, v):
            if i == len(steps):
                yield v
                return
            row, n = steps[i]
            for _ in range(n):
                yield from walk(i + 1, v)
                v = add(v, row)
        return walk(0, self.group.zero)

    def elements(self) -> frozenset:
        if self._elements is None:
            seen = frozenset(self)
            if len(seen) != self.size:
                raise RingError(f"{len(seen)} elements in a subgroup of size {self.size}")
            self._elements = seen
        return self._elements

    def join(self, other: "Subgroup") -> "Subgroup":
        return Subgroup.from_generators(self.group, self.basis + other.basis)

    def intersect(self, other: "Subgroup") -> "Subgroup":
        """Zassenhaus: the kernel of the inclusion of self into G/other."""
        return AdditiveMap(self.group, self.key, other.key, sources=self.key).kernel

    def is_zero(self) -> bool:
        return self.size == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup)
                and self.group.cyclic_orders == other.group.cyclic_orders
                and self.key == other.key)

    def __hash__(self):
        return hash((self.group.cyclic_orders, self.key))

    def __lt__(self, other: "Subgroup") -> bool:
        return self.key < other.key

    def __repr__(self):
        return f"Subgroup(size={self.size}, basis={list(self.basis)})"


def cached(store: dict, key, compute):
    """`store[key]`, filled by `compute()` on the first request.

    Derived data is cached this way on a ring (in `FiniteRing._extra`) and
    on an action context.
    """
    if key not in store:
        store[key] = compute()
    return store[key]


class FiniteRing:
    """A finite ring: additive group plus generator structure constants.

    Instances are immutable after validation; the multiplication cache is
    populated lazily and is safe to precompute before sharing across workers.
    """

    def __init__(self, additive: AdditiveGroup, mul_table, unit: Element | None,
                 name: str | None = None):
        self.additive = additive
        self.cyclic_orders = additive.cyclic_orders
        self.mul_table = tuple(tuple(additive.reduce(c) for c in row)
                               for row in mul_table)
        self.unit = unit
        self.name = name or "R" + "x".join(map(str, additive.cyclic_orders))
        self.order = additive.order
        self.exponent = additive.exponent
        self.rank = additive.rank
        self.zero = additive.zero
        self._mul_cache: dict | None = {} if self.order <= MUL_CACHE_MAX_ORDER else None
        self._extra: dict = {}

    # -- additive structure ------------------------------------------------
    def add(self, x: Element, y: Element) -> Element:
        return self.additive.add(x, y)

    def neg(self, x: Element) -> Element:
        return self.additive.neg(x)

    def sub(self, x: Element, y: Element) -> Element:
        return self.additive.sub(x, y)

    def smul(self, n: int, x: Element) -> Element:
        return self.additive.smul(n, x)

    # -- multiplication ----------------------------------------------------
    def mul(self, x: Element, y: Element) -> Element:
        cache = self._mul_cache
        if cache is not None:
            v = cache.get((x, y))
            if v is not None:
                return v
        orders = self.cyclic_orders
        acc = [0] * self.rank
        table = self.mul_table
        for i, xi in enumerate(x):
            if xi:
                row = table[i]
                for j, yj in enumerate(y):
                    if yj:
                        c = row[j]
                        f = xi * yj
                        for t in range(self.rank):
                            acc[t] += f * c[t]
        out = tuple(a % d for a, d in zip(acc, orders))
        if cache is not None:
            cache[(x, y)] = out
        return out

    def power_of_subgroup(self, sub: Subgroup, other: Subgroup) -> Subgroup:
        """Additive span of pairwise products of two subgroups."""
        prods = [self.mul(a, b) for a in sub.basis for b in other.basis]
        return Subgroup.from_generators(self.additive, prods)

    # -- enumeration ---------------------------------------------------------
    def elements(self) -> Iterator[Element]:
        return self.additive.elements()

    def generator(self, i: int) -> Element:
        return self.additive.generator(i)

    def generators(self) -> list[Element]:
        return [self.additive.generator(i) for i in range(self.rank)]

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def table_key(self):
        return (self.cyclic_orders, self.mul_table, self.unit)

    def __repr__(self):
        return f"FiniteRing({self.name}, order={self.order})"

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_mul_cache"] = {} if self._mul_cache is not None else None
        state["_extra"] = {}
        return state


def validate_ring(cyclic_orders, table, unit_hint: Element | None = None,
                  name: str | None = None) -> FiniteRing:
    """Validate raw structure constants and return the ring.

    Checks bilinear well-definedness and associativity on generator triples
    (which suffices by biadditivity), then solves for a two-sided identity,
    which must equal `unit_hint` when one is given.
    """
    group = AdditiveGroup(tuple(int(d) for d in cyclic_orders))
    k = group.rank
    if len(table) != k or any(len(row) != k for row in table):
        raise RingError(f"table must be {k}x{k}")
    reduced = [[group.reduce(c) for c in row] for row in table]
    for c_row in reduced:
        for c in c_row:
            if len(c) != k:
                raise RingError("structure constant of wrong length")
    for i in range(k):
        for j in range(k):
            c = reduced[i][j]
            di, dj = group.cyclic_orders[i], group.cyclic_orders[j]
            if any(group.smul(di, c)) or any(group.smul(dj, c)):
                raise IllDefined(i, j)
    ring = FiniteRing(group, reduced, None, name=name)
    gens = ring.generators()
    for i in range(k):
        for j in range(k):
            cij = reduced[i][j]
            for l in range(k):
                left = ring.mul(cij, gens[l])
                right = ring.mul(gens[i], reduced[j][l])
                if left != right:
                    raise NonAssociative(i, j, l)
    # u is the identity iff u·g_j = g_j = g_j·u for every generator g_j
    images = [sum((reduced[i][j] for j in range(k)), ())
              + sum((reduced[j][i] for j in range(k)), ()) for i in range(k)]
    pairs = AdditiveGroup(group.cyclic_orders * (2 * k))
    unit = AdditiveMap(group, images, pairs.lattice_rows()).preimage(sum(gens, ()) * 2)
    if unit_hint is not None and group.reduce(unit_hint) != unit:
        raise NotUnital(f"claimed identity {group.reduce(unit_hint)} is not one")
    ring.unit = unit
    return ring


def inverse(ring: FiniteRing, u: Element) -> Element | None:
    """The two-sided inverse of u, or None when u is not a unit.

    It is the preimage of 1 under y ↦ u·y, if that is also a left inverse.
    """
    if not ring.is_unital:
        return None
    y = AdditiveMap(ring.additive, [ring.mul(u, g) for g in ring.generators()],
                    ring.additive.lattice_rows()).preimage(ring.unit)
    if y is None or ring.mul(y, u) != ring.unit:
        return None
    return y


# -- constructors -----------------------------------------------------------

def cyclic_ring(d: int, c: int = 1, name: str | None = None) -> FiniteRing:
    """Z/d with generator product e*e = c*e (c=1 gives the unital ring Z/d)."""
    return validate_ring((d,), [[(c % d,)]], name=name or f"z{d}" + (f"_c{c}" if c != 1 else ""))


def zero_mult_ring(group: AdditiveGroup | tuple[int, ...], name: str | None = None) -> FiniteRing:
    """Ring with all products zero on the given additive group."""
    if not isinstance(group, AdditiveGroup):
        group = AdditiveGroup(tuple(group))
    zero = group.zero
    table = [[zero for _ in range(group.rank)] for _ in range(group.rank)]
    return validate_ring(group.cyclic_orders, table,
                         name=name or "zm" + "x".join(map(str, group.cyclic_orders)))


def unitalize(ring: FiniteRing) -> FiniteRing:
    """Adjoin an identity: Z/e ⊕ R with e the additive exponent of R.

    Multiplication is (m,x)(n,y) = (mn, my+nx+xy); the original ring embeds
    as the two-sided ideal of elements with first coordinate zero.
    """
    e = ring.exponent
    if e == 1:
        return validate_ring((), [], name=f"{ring.name}_unital")
    k = ring.rank
    orders = (e,) + ring.cyclic_orders
    zero = (0,) * (k + 1)

    def emb(x: Element) -> Element:
        return (0,) + x

    table = [[zero for _ in range(k + 1)] for _ in range(k + 1)]
    table[0][0] = (1,) + ring.zero
    for i in range(k):
        gi = emb(ring.generator(i))
        table[0][i + 1] = gi
        table[i + 1][0] = gi
        for j in range(k):
            table[i + 1][j + 1] = emb(ring.mul_table[i][j])
    unit = (1,) + ring.zero
    return validate_ring(orders, table, unit_hint=unit, name=f"{ring.name}_unital")


def direct_product(rings: list[FiniteRing], name: str | None = None) -> FiniteRing:
    """Componentwise product ring."""
    if not rings:
        raise RingError("empty product")
    orders: tuple[int, ...] = ()
    offsets = []
    for r in rings:
        offsets.append(len(orders))
        orders += r.cyclic_orders
    k = len(orders)
    zero = (0,) * k

    def scatter(vec: Element, off: int) -> Element:
        out = [0] * k
        out[off:off + len(vec)] = vec
        return tuple(out)

    table = [[zero for _ in range(k)] for _ in range(k)]
    for r, off in zip(rings, offsets):
        for i in range(r.rank):
            for j in range(r.rank):
                table[off + i][off + j] = scatter(r.mul_table[i][j], off)
    unit = None
    if all(r.is_unital for r in rings):
        out = [0] * k
        for r, off in zip(rings, offsets):
            out[off:off + r.rank] = r.unit
        unit = tuple(out)
    return validate_ring(orders, table, unit_hint=unit,
                         name=name or "x".join(r.name for r in rings))


def matrix_ring(ring: FiniteRing, n: int, name: str | None = None) -> FiniteRing:
    """n×n matrices over a unital ring, on the matrix-unit generator basis."""
    if not ring.is_unital:
        raise NotUnital("matrix ring needs a unital coefficient ring")
    if n < 1:
        raise RingError("matrix size must be >= 1")
    k = ring.rank
    dim = n * n * k
    orders = tuple(ring.cyclic_orders[t] for _ in range(n * n) for t in range(k))
    zero = (0,) * dim

    def pos(i: int, j: int, t: int) -> int:
        return (i * n + j) * k + t

    def scatter(vec: Element, i: int, j: int) -> Element:
        out = [0] * dim
        for t, c in enumerate(vec):
            out[pos(i, j, t)] = c
        return tuple(out)

    table = [[zero for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for s in range(k):
                for jj in range(n):
                    for l in range(n):
                        for t in range(k):
                            if j == jj:
                                table[pos(i, j, s)][pos(jj, l, t)] = scatter(
                                    ring.mul_table[s][t], i, l)
    unit = [0] * dim
    for i in range(n):
        for t, c in enumerate(ring.unit):
            unit[pos(i, i, t)] = c
    return validate_ring(orders, table, unit_hint=tuple(unit),
                         name=name or f"m{n}({ring.name})")


def group_ring(ring: FiniteRing, cayley, name: str | None = None) -> FiniteRing:
    """Group ring R[H] for unital R and H given by a Cayley table of indices."""
    if not ring.is_unital:
        raise NotUnital("group ring needs a unital coefficient ring")
    n = len(cayley)
    if any(len(row) != n for row in cayley):
        raise RingError("Cayley table must be square")
    ident = None
    for e in range(n):
        if all(cayley[e][x] == x and cayley[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise RingError("Cayley table has no identity")
    for a in range(n):
        if ident not in cayley[a]:
            raise RingError(f"element {a} has no inverse")
        for b in range(n):
            for c in range(n):
                if cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]:
                    raise RingError("Cayley table is not associative")
    k = ring.rank
    dim = n * k
    orders = tuple(ring.cyclic_orders[t] for _ in range(n) for t in range(k))
    zero = (0,) * dim

    def scatter(vec: Element, h: int) -> Element:
        out = [0] * dim
        for t, c in enumerate(vec):
            out[h * k + t] = c
        return tuple(out)

    table = [[zero for _ in range(dim)] for _ in range(dim)]
    for h1 in range(n):
        for s in range(k):
            for h2 in range(n):
                for t in range(k):
                    table[h1 * k + s][h2 * k + t] = scatter(
                        ring.mul_table[s][t], cayley[h1][h2])
    unit = scatter(ring.unit, ident)
    return validate_ring(orders, table, unit_hint=unit,
                         name=name or f"{ring.name}[H{n}]")


# -- kernels and preimages ------------------------------------------------------------

class AdditiveMap:
    """An additive map into Z^m modulo the full-rank row lattice `relations`.

    It sends `sources[i]` to `images[i]`; `sources` (default: the generators
    of `group`) span the preimage lattice of a subgroup of `group`, on which
    the map must be well defined.  One Hermite form of the graph lattice
    [[images | sources], [relations | 0]] gives the `kernel` (its rows that
    vanish on the image columns) and every `preimage` (the reduction of
    [target | 0] by its other rows).
    """

    __slots__ = ("group", "kernel", "_width", "_pivots")

    def __init__(self, group: AdditiveGroup, images, relations, sources=None):
        n, m = group.rank, len(relations)
        if sources is None:
            sources = [group.generator(i) for i in range(n)]
        rows = [list(y) + list(x) for y, x in zip(images, sources)]
        rows.extend(list(r) + [0] * n for r in relations)
        hnf = hermite_form(rows, m + n)
        cut = next((t for t, row in enumerate(hnf) if not any(row[:m])), len(hnf))
        key = tuple(row[m:] for row in hnf[cut:])
        if not all(in_hermite_span(key, r) for r in group.lattice_rows()):
            raise RingError("the map is not well defined on the group")
        self.group = group
        self.kernel = Subgroup(group, key)
        self._width = m
        self._pivots = [(next(c for c, x in enumerate(row) if x), row)
                        for row in hnf[:cut]]

    def preimage(self, target) -> Element | None:
        """Some x with f(x) = target, or None when target is not an image."""
        v = list(target) + [0] * self.group.rank
        for c, row in self._pivots:
            q, r = divmod(v[c], row[c])
            if r:
                return None
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        if any(v[:self._width]):
            return None
        return self.group.reduce(-a for a in v[self._width:])


# -- closure, join closure and atoms ----------------------------------------------

def close_subgroup(group: AdditiveGroup, gens: Iterable[Element],
                   maps: list[Callable[[Element], Element]]) -> Subgroup:
    """Least subgroup containing `gens` that every (additive) map keeps inside."""
    sub = Subgroup.from_generators(group, gens)
    while True:
        new = []
        for b in sub.basis:
            for f in maps:
                y = f(b)
                if not sub.contains(y):
                    new.append(y)
        if not new:
            return sub
        sub = Subgroup.from_generators(group, sub.basis + tuple(new))


def join_closure(base: Iterable[Subgroup], count_cap: int):
    """(all joins of members of `base` sorted by key, exhaustive).

    Depth first from the last subgroup found; once `count_cap` are known, the
    next new join stops the search, so a capped result is fixed by `base`.
    """
    gens: dict = {}
    for sub in base:
        gens.setdefault(sub.key, sub)
    found = dict(gens)
    frontier = list(gens.values())
    exhaustive = True
    while frontier and exhaustive:
        cur = frontier.pop()
        for b in gens.values():
            joined = cur.join(b)
            if joined.key in found:
                continue
            if len(found) >= count_cap:
                exhaustive = False
                break
            found[joined.key] = joined
            frontier.append(joined)
    return sorted(found.values(), key=lambda s: s.key), exhaustive


def atom_below(sub: Subgroup, close) -> Subgroup:
    """An atom of the lattice of closed subgroups inside the nonzero `sub`.

    `close(x)` is the least closed subgroup containing x; an atom is the
    closure of each of its nonzero elements.
    """
    for y in sub.elements():
        if any(y):
            smaller = close(y)
            if smaller != sub:
                return atom_below(smaller, close)
    return sub


def minimal_closures(elements: Iterable[Element], close) -> list[Subgroup]:
    """All atoms (see `atom_below`), sorted by key; `elements` is the group."""
    closures: dict = {}
    for x in elements:
        if any(x):
            c = close(x)
            closures.setdefault(c.key, c)
    return sorted((c for c in closures.values() if atom_below(c, close) == c),
                  key=lambda s: s.key)


# -- ideals and subrings ------------------------------------------------------

def _side_maps(ring: FiniteRing, side: str) -> list[Callable[[Element], Element]]:
    """Multiplication by each ring generator on the given side(s)."""
    maps = []
    for g in ring.generators():
        if side in (LEFT, TWOSIDED):
            maps.append(lambda x, g=g: ring.mul(g, x))
        if side in (RIGHT, TWOSIDED):
            maps.append(lambda x, g=g: ring.mul(x, g))
    return maps


class Ideal:
    """A sided ideal, stored as an additive subgroup of the parent ring."""

    __slots__ = ("ring", "side", "sub")

    def __init__(self, ring: FiniteRing, side: str, sub: Subgroup):
        if side not in SIDES:
            raise WrongSide(f"unknown side {side!r}")
        self.ring = ring
        self.side = side
        self.sub = sub

    @property
    def basis(self):
        return self.sub.basis

    @property
    def size(self) -> int:
        return self.sub.size

    @property
    def key(self):
        return self.sub.key

    def elements(self):
        return self.sub.elements()

    def contains(self, x: Element) -> bool:
        return self.sub.contains(x)

    def is_zero(self) -> bool:
        return self.sub.is_zero()

    def verify_closure(self) -> bool:
        maps = _side_maps(self.ring, self.side)
        return all(self.contains(f(b)) for b in self.basis for f in maps)

    @classmethod
    def from_basis(cls, ring: FiniteRing, side: str, gens, verify: bool = True) -> "Ideal":
        ideal = cls(ring, side, Subgroup.from_generators(ring.additive, gens))
        if verify and not ideal.verify_closure():
            raise RingError("generators do not span a sided ideal")
        return ideal

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring is other.ring
                and self.side == other.side and self.sub == other.sub)

    def __hash__(self):
        return hash((id(self.ring), self.side, self.sub.key))

    def __repr__(self):
        return f"Ideal({self.side}, size={self.size}, basis={list(self.basis)})"


def generated_ideal(ring: FiniteRing, gens: Iterable[Element], side: str) -> Ideal:
    """Smallest sided ideal containing `gens`.

    Closure runs with the unitalization convention, so the generators are
    always contained in the result.
    """
    return Ideal(ring, side, close_subgroup(ring.additive, gens, _side_maps(ring, side)))


# -- coordinates on subquotients ------------------------------------------------

class Coordinates:
    """Smith-form coordinates on a subquotient A/L of the group ⊕_i Z/d_i.

    A is the row lattice of `basis` (Z^k when omitted) and L ⊆ A that of
    `rows`, both of full rank.  `project` (a reduced element of A to its
    coordinates in `image` = ⊕_t Z/c_t) and `lift` are precomputed integer
    matrices; `generators` lift the coordinate generators.
    """

    def __init__(self, group: AdditiveGroup, rows, basis=None):
        k = group.rank
        lattice, den = [list(r) for r in rows], 1
        if basis is not None:
            to_basis = invert_matrix(basis)
            lattice = [vec_mat(r, to_basis) for r in lattice]
            if any(f.denominator != 1 for r in lattice for f in r):
                raise RingError("lattice does not lie in the basis lattice")
            lattice = [[int(f) for f in r] for r in lattice]
            den = lcm(*(f.denominator for r in to_basis for f in r))
        diag, v, vinv = smith_form(lattice, k)
        kept = [j for j in range(k) if diag[j] > 1]
        lift = [vinv[j] for j in kept]
        if basis is not None:
            v = [[int(den * f) for f in r] for r in mat_mul(to_basis, v)]
            lift = mat_mul(lift, basis)
        # with a basis, the dropped columns still decide membership in A
        cols = kept + ([j for j in range(k) if j not in kept] if den > 1 else [])
        self.group = group
        self.image = AdditiveGroup(tuple(diag[j] for j in kept))
        self._den = den
        self._project = [tuple(r[j] for r in v) for j in cols]
        self._lift = [tuple(r[i] for r in lift) for i in range(k)]
        self.generators = [group.reduce(r) for r in lift]
        self._domain = ([group.generator(i) for i in range(k)] if basis is None
                        else [g for g in map(group.reduce, basis) if any(g)])

    def project(self, x: Element) -> Element:
        y = [sum(a * c for a, c in zip(x, col)) for col in self._project]
        if self._den > 1:
            if any(c % self._den for c in y):
                raise RingError(f"{x} is not in the subgroup")
            y = [c // self._den for c in y]
        return tuple(c % d for c, d in zip(y, self.image.cyclic_orders))

    def lift(self, y: Element) -> Element:
        return tuple(sum(a * c for a, c in zip(y, col)) % d
                     for col, d in zip(self._lift, self.group.cyclic_orders))

    def check(self, op, image_op, scalars=None) -> None:
        """Raise RingError unless `project` is an isomorphism for `op`.

        Round trips on the coordinate generators make `project` a bijection
        of A/L onto `image`.  Without `scalars`, `project` must turn `op` on
        every pair of generators of A into `image_op`; with them, `op` is an
        action and `project` must commute with each scalar.  `image_op` is
        well defined (a validated table), so by biadditivity this proves a
        ring or module isomorphism.
        """
        for t, g in enumerate(self.generators):
            if self.project(g) != self.image.generator(t):
                raise RingError("coordinate maps do not round-trip")
        for a in self._domain if scalars is None else scalars:
            a_image = self.project(a) if scalars is None else a
            for b in self._domain:
                if self.project(op(a, b)) != image_op(a_image, self.project(b)):
                    raise RingError(f"coordinates do not preserve {a}·{b}")


def _coordinate_ring(parent: FiniteRing, coords: Coordinates, order: int,
                     name: str, unit: Element | None = None) -> FiniteRing:
    """The ring that `coords` carry over from `parent`, checked isomorphic."""
    gens = coords.generators
    table = [[coords.project(parent.mul(a, b)) for b in gens] for a in gens]
    ring = validate_ring(coords.image.cyclic_orders, table, unit_hint=unit, name=name)
    if ring.order != order:
        raise RingError(f"coordinate ring has order {ring.order}, not {order}")
    coords.check(parent.mul, ring.mul)
    return ring


@dataclass
class RingImage:
    """An abstract copy of a subquotient with coordinate maps both ways."""

    ring: FiniteRing
    to_image: Callable[[Element], Element]
    from_image: Callable[[Element], Element]


class SubringView:
    """A multiplicatively closed additive subgroup of a parent ring."""

    __slots__ = ("ring", "sub", "_image")

    def __init__(self, ring: FiniteRing, sub: Subgroup, verify: bool = True):
        self.ring = ring
        self.sub = sub
        self._image = None
        if verify:
            for a in sub.basis:
                for b in sub.basis:
                    if not sub.contains(ring.mul(a, b)):
                        raise RingError("subgroup is not multiplicatively closed")

    @classmethod
    def from_elements(cls, ring: FiniteRing, elems, verify: bool = True) -> "SubringView":
        return cls(ring, Subgroup.from_generators(ring.additive, elems), verify=verify)

    @property
    def basis(self):
        return self.sub.basis

    @property
    def size(self) -> int:
        return self.sub.size

    def elements(self):
        return self.sub.elements()

    def contains(self, x: Element) -> bool:
        return self.sub.contains(x)

    def image(self, name: str | None = None) -> RingImage:
        """Realize the subring as a FiniteRing of its own, with maps.

        The coordinates are those of the order lattice written in the
        subgroup's Hermite basis.
        """
        if self._image is None:
            group = self.ring.additive
            coords = Coordinates(group, group.lattice_rows(), basis=self.sub.key)
            ring = _coordinate_ring(self.ring, coords, self.sub.size,
                                    name or f"{self.ring.name}^sub")
            self._image = RingImage(ring, coords.project, coords.lift)
        return self._image

    def __repr__(self):
        return f"SubringView(size={self.size}, basis={list(self.basis)})"


@dataclass
class Quotient:
    """Quotient ring together with the projection and a canonical section."""

    ring: FiniteRing
    project: Callable[[Element], Element]
    lift: Callable[[Element], Element]


def quotient_by_ideal(parent: FiniteRing, ideal: Ideal, name: str | None = None) -> Quotient:
    """Quotient by a two-sided ideal; the projection is a verified ring map."""
    if ideal.side != TWOSIDED:
        raise WrongSide("can only quotient by a two-sided ideal")
    coords = Coordinates(parent.additive, ideal.sub.key)
    unit = coords.project(parent.unit) if parent.is_unital else None
    ring = _coordinate_ring(parent, coords, parent.order // ideal.size,
                            name or f"{parent.name}/I", unit)
    return Quotient(ring, coords.project, coords.lift)
