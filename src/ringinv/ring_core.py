"""Finite, possibly non-unital rings given by structure constants.

A ring lives on an additive group ⊕_i Z/d_i; elements are coordinate tuples
in canonical reduced form and multiplication is the bilinear extension of a
k×k table of generator products.  Ideals and subrings are additive subgroups
canonicalized by the Hermite form of their preimage lattice, so equality
tests never enumerate elements.  A group interns its subgroups: it holds
one `Subgroup` object per key (`AdditiveGroup.subgroup`, the one
constructor) and memoizes every span taken on it by (key, generators), so
a subgroup's basis, size and elements are computed once and a span taken
again is one table lookup.  The tables live on the group object, and every
ring has a group of its own (`_checked_table`), so they never cross rings: a
rebuilt context re-checks with tables of its own.  Keys grow by insertion:
`Subgroup.extend` adds the generators outside a key to it and returns the
subgroup itself when there are none, so generating and joining never
rebuild a key; a key made any other way (a primary component's diagonal,
a kernel) is checked to be a Hermite key first (`checked_key`);
`AdditiveMap` holds the one Hermite form still computed from scratch;
`lattices.hermite_solve` (coordinates), `lattices.in_hermite_span`
(membership) and `lattices.hermite_reduce` (least coset representatives)
are the back-substitutions down a key.  A generated
ideal is one span with no fixed-point loop (`generated_ideal`): the products
of generators are combinations of generators, so S + R·S and L + L·R are
closed as they stand.

The structure theory rests on four primitives over those subgroups:
`AdditiveMap` (kernel and preimages of an additive map from one Hermite
form: intersections, fixed subgroups, identities, inverses, annihilators,
splittings), `join_closure` (lattices of ideals and subgroups, and on
request the joins strictly above each member), `cover`
(one step up such a lattice, searching one element per coset; atoms by
`minimal_closures`, composition lengths by `chain_length`), and
`Coordinates` (Smith-form coordinates on a subquotient A/L given by two
Hermite keys, reached by back-substitution down A's key, or by none when A
is the whole group: quotient rings and subring images), whose one check
proves the transported ring correct.  A whole ring whose cyclic orders form
a divisibility chain is its own image, before any coordinates are built
(`_own_image`), and a copy of full order in other coordinates records R and
the checked map (`copy_source`).
`FiniteRing.power_chain` is the one loop over the powers of a subgroup.
On a commutative ring the three sides have the same ideals, so every exact
side-indexed product is computed once and relabelled: `sided` is the one
memo that decides the shared side, caches under it and relabels the result.
Direct products, matrix rings and group rings are block rings, one copy of a
ring per block, and `_block_ring` is the one layout of their structure
constants.  `FiniteRing.primary_components` splits a ring into the direct
product of its p-primary parts R_p = (e/p^a)·R, which the radicals and the
torsion ideals walk one at a time; each R_p is a diagonal key read off the
cyclic orders.  `checked_identity` checks a given identity on the
generators instead of solving for one: an identity is unique, so a hint
that passes is the one the solve would find.  `validate_ring` reads
associativity off the structure constants; a coordinate ring skips it, as
its isomorphism with the parent proves it (`_coordinate_ring`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, is_dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import Callable, Iterable, Iterator

from .lattices import (
    hermite_extend,
    hermite_form,
    hermite_reduce,
    hermite_solve,
    in_hermite_span,
    mat_mul,
    smith_form,
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
    """The additive carrier ⊕_i Z/d_i; every d_i >= 2.

    A group holds one `Subgroup` object per Hermite key, made by `subgroup`,
    and memoizes each span taken on it by (key, generators) (`Subgroup.
    extend`).  Both tables live on this object and die with it, and equality
    and hashing ignore them.  Every ring gets a fresh group
    (`_checked_table`, and `theorems.rebuild_context` from its record), so
    no table spans two rings: a rebuilt context, a coordinate ring and an
    unpickled group (`__getstate__`) all start with empty tables, and
    without the interned `whole`, which would point into the old table.
    """

    cyclic_orders: tuple[int, ...]
    _subgroups: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for d in self.cyclic_orders:
            if d < 2:
                raise ValueError(f"cyclic order {d} < 2")

    def subgroup(self, key: tuple[tuple[int, ...], ...]) -> "Subgroup":
        """The one subgroup of this group with the full-rank Hermite key `key`."""
        sub = self._subgroups.get(key)
        if sub is None:
            sub = self._subgroups[key] = Subgroup(self, key)
        return sub

    @cached_property
    def whole(self) -> "Subgroup":
        """The whole group, interned under its Hermite key, the identity
        (the unit vectors, `generators`), which `checked_key` confirms once
        per group."""
        return self.subgroup(checked_key(self, self.generators))

    def __getstate__(self):
        state = dict(self.__dict__, _subgroups={}, _spans={})
        state.pop("whole", None)
        return state

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

    # tuple([...]) rather than tuple(<generator>): these run per element,
    # and a list comprehension skips the generator's frame switches
    def reduce(self, v: Iterable[int]) -> Element:
        return tuple([c % d for c, d in zip(v, self.cyclic_orders)])

    def add(self, x: Element, y: Element) -> Element:
        return tuple([(a + b) % d for a, b, d in zip(x, y, self.cyclic_orders)])

    def neg(self, x: Element) -> Element:
        return tuple([(-a) % d for a, d in zip(x, self.cyclic_orders)])

    def sub(self, x: Element, y: Element) -> Element:
        return tuple([(a - b) % d for a, b, d in zip(x, y, self.cyclic_orders)])

    def smul(self, n: int, x: Element) -> Element:
        return tuple([(n * a) % d for a, d in zip(x, self.cyclic_orders)])

    def combine(self, coeffs, vectors) -> Element:
        """Σ_i coeffs[i]·vectors[i], reduced."""
        acc = [0] * self.rank
        for c, v in zip(coeffs, vectors):
            if c:
                acc = [a + c * t for a, t in zip(acc, v)]
        return self.reduce(acc)

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic coordinate order."""
        return itertools.product(*(range(d) for d in self.cyclic_orders))

    def generator(self, i: int) -> Element:
        return self.generators[i]

    @cached_property
    def generators(self) -> tuple[Element, ...]:
        """The unit vectors, in coordinate order."""
        k = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k))

    @cached_property
    def relations(self) -> tuple[tuple[int, ...], ...]:
        """diag(d_i): the order relations, the Hermite key of zero."""
        k = self.rank
        return tuple(tuple(self.cyclic_orders[i] if j == i else 0 for j in range(k))
                     for i in range(k))


class Subgroup:
    """Additive subgroup of an AdditiveGroup, canonical under Hermite form.

    `key` is the full-rank Hermite form of the preimage lattice (generators
    plus the order relations); two subgroups are equal iff keys are equal.
    Every subgroup is made by `AdditiveGroup.subgroup`, so a group has one
    object per key, and its `basis`, `size` and `elements()` are computed
    once.  Keys grow from keys: `extend` inserts only the vectors outside
    the span, returns `self` when there are none, and answers a span
    already taken on the group from its table.  `basis` is the human-facing
    generating set: nonzero key rows reduced.
    """

    __slots__ = ("group", "key", "size", "_basis", "_elements")

    def __init__(self, group: AdditiveGroup, key: tuple[tuple[int, ...], ...]):
        self.group = group
        self.key = key
        det = prod(key[i][i] for i in range(len(key))) if key else 1
        self.size = group.order // det
        self._basis = None
        self._elements = None

    @property
    def basis(self) -> tuple[Element, ...]:
        if self._basis is None:
            self._basis = tuple(
                r for r in (self.group.reduce(row) for row in self.key) if any(r))
        return self._basis

    @classmethod
    def from_generators(cls, group: AdditiveGroup, gens: Iterable[Element]) -> "Subgroup":
        return cls.zero(group).extend(gens)

    @classmethod
    def zero(cls, group: AdditiveGroup) -> "Subgroup":
        return group.subgroup(group.relations)

    def extend(self, gens: Iterable[Element]) -> "Subgroup":
        """The subgroup generated by self and `gens`; `self` when they lie in it."""
        memo, spans = (self.key, tuple(gens)), self.group._spans
        sub = spans.get(memo)
        if sub is None:
            sub = spans[memo] = self.group.subgroup(hermite_extend(self.key, memo[1]))
        return sub

    def contains(self, x: Element) -> bool:
        return in_hermite_span(self.key, x)

    def coset_rep(self, x: Element) -> Element:
        """The least representative of the coset x + self: equal for two
        elements iff they differ by a member, zero iff x is one."""
        return hermite_reduce(self.key, x)

    def __iter__(self) -> Iterator[Element]:
        return self.transversal()

    def transversal(self, below: "Subgroup | None" = None) -> Iterator[Element]:
        """One element per coset of `below` (of zero when None), zero first,
        lazily: Σ c_i·key_i over 0 <= c_i < below.key_ii / key_ii.

        Both keys are triangular and below ⊆ self, so key_ii divides
        below.key_ii and these sums are distinct modulo `below`; there are
        |self|/|below| of them, in lexicographic order of (c_i).
        """
        bounds = (self.group.cyclic_orders if below is None
                  else [row[i] for i, row in enumerate(below.key)])
        steps = [(self.group.reduce(row), b // row[i]) for i, (row, b)
                 in enumerate(zip(self.key, bounds)) if b // row[i] > 1]
        return _walk(self.group.add, steps, 0, self.group.zero)

    def elements(self) -> frozenset:
        if self._elements is None:
            seen = frozenset(self)
            if len(seen) != self.size:
                raise RingError(f"{len(seen)} elements in a subgroup of size {self.size}")
            self._elements = seen
        return self._elements

    def join(self, other: "Subgroup") -> "Subgroup":
        return other if self.is_zero() else self.extend(other.basis)

    def intersect(self, other: "Subgroup") -> "Subgroup":
        """The smaller operand when one lies in the other (zero and the whole
        group among them); otherwise Zassenhaus: the kernel of the inclusion
        of self into G/other."""
        small, big = (other, self) if other.size <= self.size else (self, other)
        if big.size % small.size == 0 and big.extend(small.basis) is big:
            return small
        return AdditiveMap(self.group, self.key, other.key, sources=self.key).kernel

    def is_zero(self) -> bool:
        return self.size == 1

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Subgroup)
            and self.group.cyclic_orders == other.group.cyclic_orders
            and self.key == other.key)

    def __hash__(self):
        return hash((self.group.cyclic_orders, self.key))

    def __lt__(self, other: "Subgroup") -> bool:
        return self.key < other.key

    def __reduce__(self):
        # an unpickled subgroup is interned on its unpickled group
        return self.group.subgroup, (self.key,)

    def __repr__(self):
        return f"Subgroup(size={self.size}, basis={list(self.basis)})"


def _walk(add, steps, i: int, v: Element) -> Iterator[Element]:
    """v + Σ_{t >= i} c_t·row_t over 0 <= c_t < n_t for (row_t, n_t) in
    `steps`, in lexicographic order of (c_t).  A module-level generator, so
    that a walk holds no reference to itself and is freed when it ends."""
    if i == len(steps):
        yield v
        return
    row, n = steps[i]
    for _ in range(n):
        yield from _walk(add, steps, i + 1, v)
        v = add(v, row)


def checked_key(group: AdditiveGroup, key: tuple[tuple[int, ...], ...]):
    """`key` itself, once it is checked to be a full-rank Hermite key of a
    subgroup of `group`: square, with pivot i in row i, each pivot positive
    and dividing d_i, every entry left of a pivot zero, every entry above a
    pivot in [0, pivot), and every relation d_i·e_i in its span; RingError
    otherwise.

    A key grown by `hermite_extend` is one by construction; a key made any
    other way goes through this check before `AdditiveGroup.subgroup`
    interns it, which checks nothing, so that its lookups stay one
    `dict.get`.
    """
    k = group.rank
    if len(key) != k or any(len(row) != k for row in key):
        raise RingError(f"a key of a rank-{k} group must be {k}x{k}")
    for i, (row, d) in enumerate(zip(key, group.cyclic_orders)):
        pivot = row[i]
        if pivot <= 0 or d % pivot:
            raise RingError(f"pivot {pivot} of row {i} is not a positive divisor of {d}")
        if any(row[:i]):
            raise RingError(f"row {i} has a nonzero entry left of its pivot")
        if any(not 0 <= key[r][i] < pivot for r in range(i)):
            raise RingError(f"column {i} has an entry above its pivot outside [0, {pivot})")
    if not all(in_hermite_span(key, r) for r in group.relations):
        raise RingError("the key does not span the order relations")
    return key


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_MISSING = object()


def cached(store: dict, key, compute):
    """`store[key]`, filled by `compute()` on the first request.

    Derived data is cached this way on a ring (in `FiniteRing._extra`) and
    on an action context; a side-indexed product is cached by `sided`.  A
    hit is one `dict.get`; the sentinel tells a stored None from a miss.
    """
    value = store.get(key, _MISSING)
    if value is _MISSING:
        value = store[key] = compute()
    return value


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

    def power_chain(self, sub: Subgroup, cap: int | None = None):
        """(d, repeated): the least d <= cap (unbounded when None) with
        sub^d = 0, where sub^d is the span of sub·sub^(d-1), else None; and
        whether a nonzero power repeated, which proves none ever vanishes.
        There are finitely many subgroups, so without a cap d or repeated is
        set."""
        if sub.is_zero():
            return 1, False
        current, seen = sub, {sub.key}
        for d in (itertools.count(2) if cap is None else range(2, cap + 1)):
            current = Subgroup.from_generators(
                self.additive, [self.mul(a, b) for a in sub.basis for b in current.basis])
            if current.is_zero():
                return d, False
            if current.key in seen:
                return None, True
            seen.add(current.key)
        return None, False

    # -- enumeration ---------------------------------------------------------
    def elements(self) -> Iterator[Element]:
        return self.additive.elements()

    def primary_components(self) -> tuple[tuple[int, Subgroup], ...]:
        """(p, R_p) for each prime p dividing the additive exponent e, in
        increasing p: R_p = (e/p^a)·R, with p^a the p-part of e, is the
        subgroup of elements killed by a power of p.

        R is their direct sum as a ring.  m·R is a two-sided ideal for every
        integer m, and R_p·R_q = 0 for p ≠ q, since a product of x ∈ R_p and
        y ∈ R_q is killed by a power of p and by one of q.  With c_p ≡ 1 mod
        p^a and c_p ≡ 0 mod e/p^a, x = Σ_p c_p·x splits every x into its
        components c_p·x ∈ R_p; an additive subgroup holds the integer
        multiples of its members, so every subgroup S is ⊕_p (S ∩ R_p), and
        every sided ideal with it.

        R_p is read off the cyclic orders, with no span.  d_i divides e, so
        gcd(d_i, p^a) is the p-part of d_i and m_i = d_i/gcd(d_i, p^a) its
        part prime to p; in Z/d_i the elements killed by a power of p are the
        multiples of m_i, and (e/p^a)·Z/d_i is that subgroup, since
        gcd(e/p^a, d_i) = m_i.  So R_p = ⊕_i m_i·Z/d_i, whose preimage lattice
        is spanned by the diagonal rows m_i·e_i (`_primary_key`): a Hermite
        key as it stands, which `checked_key` confirms before it is interned.
        """
        def compute():
            group = self.additive
            return tuple((p, group.subgroup(checked_key(group, _primary_key(group, p ** a))))
                         for p, a in sorted(factorize(self.exponent).items()))
        return cached(self._extra, "primary_components", compute)

    def generator(self, i: int) -> Element:
        return self.additive.generator(i)

    def generators(self) -> tuple[Element, ...]:
        return self.additive.generators

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    @cached_property
    def is_commutative(self) -> bool:
        """x·y = y·x for all x, y; by biadditivity, iff it holds on every
        pair of generators."""
        table = self.mul_table
        return all(table[i][j] == table[j][i]
                   for i in range(self.rank) for j in range(i))

    def table_key(self):
        return (self.cyclic_orders, self.mul_table, self.unit)

    def __repr__(self):
        return f"FiniteRing({self.name}, order={self.order})"

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_mul_cache"] = {} if self._mul_cache is not None else None
        state["_extra"] = {}
        return state


def _primary_key(group: AdditiveGroup, q: int) -> tuple[tuple[int, ...], ...]:
    """The diagonal key of the elements of `group` killed by the prime power
    q: row i is m_i·e_i with m_i = d_i/gcd(d_i, q)
    (`FiniteRing.primary_components`)."""
    k = group.rank
    return tuple(tuple(d // gcd(d, q) if j == i else 0 for j in range(k))
                 for i, d in enumerate(group.cyclic_orders))


def _checked_table(cyclic_orders, table) -> tuple[AdditiveGroup, list]:
    """(a fresh group on `cyclic_orders`, `table` reduced in it), after the
    shape check and the bilinear well-definedness check: each generator
    product is killed by the additive orders of both of its factors."""
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
    return group, reduced


def checked_identity(ring: FiniteRing, hint: Element | None = None) -> Element | None:
    """The identity of `ring`, or None when it has none.

    A given `hint` u is checked on the generators, u·g = g = g·u, which by
    biadditivity makes it a two-sided identity; an identity is unique (u =
    u·u' = u' for two of them), so u is the one a solve would find.
    Without a hint one left identity e is solved for, the preimage of the
    generators under u ↦ (u·g_j)_j (k + k² graph rows), and then checked on
    the right, g·e = g.  In a unital ring every left identity is 1, since e
    = e·1 = 1, so the solve finds 1 and the check passes; in a ring with
    no identity either no e exists or the check fails.  Either way the
    answer is the one the two-sided solve gives.
    """
    group, gens = ring.additive, ring.generators()
    if hint is not None:
        unit = group.reduce(hint)
        if any(ring.mul(unit, g) != g or ring.mul(g, unit) != g for g in gens):
            raise NotUnital(f"claimed identity {unit} is not one")
        return unit
    images = [sum(row, ()) for row in ring.mul_table]
    rows = AdditiveGroup(group.cyclic_orders * ring.rank)
    unit = AdditiveMap(group, images, rows.relations).preimage(sum(gens, ()))
    if unit is None or any(ring.mul(g, unit) != g for g in gens):
        return None
    return unit


def validate_ring(cyclic_orders, table, unit_hint: Element | None = None,
                  name: str | None = None) -> FiniteRing:
    """Validate raw structure constants and return the ring.

    Checks bilinear well-definedness (`_checked_table`) and associativity
    on generator triples, which suffices by biadditivity: (g_i·g_j)·g_l =
    Σ_t c_ij[t]·c_tl against g_i·(g_j·g_l) = Σ_t c_jl[t]·c_it, read off the
    structure constants in the order (i, j, l), so the first failing triple
    is the one `NonAssociative` names.  The identity comes from
    `checked_identity`: `unit_hint` checked on the generators, or one
    left-identity solve and a right check.
    """
    group, reduced = _checked_table(cyclic_orders, table)
    k = group.rank
    columns = [[reduced[t][l] for t in range(k)] for l in range(k)]
    for i in range(k):
        row = reduced[i]
        for j in range(k):
            cij, cj = row[j], reduced[j]
            for l in range(k):
                if group.combine(cij, columns[l]) != group.combine(cj[l], row):
                    raise NonAssociative(i, j, l)
    ring = FiniteRing(group, reduced, None, name=name)
    ring.unit = checked_identity(ring, unit_hint)
    return ring


def inverse(ring: FiniteRing, u: Element) -> Element | None:
    """The two-sided inverse of u, or None when u is not a unit.

    It is the preimage of 1 under y ↦ u·y, if that is also a left inverse.
    """
    if not ring.is_unital:
        return None
    y = AdditiveMap(ring.additive, [ring.mul(u, g) for g in ring.generators()],
                    ring.additive.relations).preimage(ring.unit)
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


def _block_ring(blocks: list[FiniteRing], product, unit_blocks,
                name: str) -> FiniteRing:
    """The ring on ⊕_b blocks[b], generator s of block b at offset(b) + s.

    Generator s of block b1 times generator t of block b2 is g_s·g_t of
    blocks[b1], placed in block product(b1, b2), or zero when that is None;
    a product is only placed among blocks that share one ring.  The identity
    is the sum of the identities of `unit_blocks` when every block is
    unital, and None otherwise.
    """
    offsets = list(itertools.accumulate((r.rank for r in blocks), initial=0))
    orders = sum((r.cyclic_orders for r in blocks), ())
    k = len(orders)

    def place(vec: Element, b: int) -> Element:
        return (0,) * offsets[b] + vec + (0,) * (k - offsets[b + 1])

    table = [[(0,) * k] * k for _ in range(k)]
    for b1, r in enumerate(blocks):
        for b2 in range(len(blocks)):
            b = product(b1, b2)
            if b is not None:
                for s in range(r.rank):
                    table[offsets[b1] + s][offsets[b2]:offsets[b2 + 1]] = [
                        place(c, b) for c in r.mul_table[s]]
    unit = None
    if all(r.is_unital for r in blocks):
        unit = [0] * k
        for b in unit_blocks:
            unit[offsets[b]:offsets[b + 1]] = blocks[b].unit
        unit = tuple(unit)
    return validate_ring(orders, table, unit_hint=unit, name=name)


def direct_product(rings: list[FiniteRing], name: str | None = None) -> FiniteRing:
    """Componentwise product ring."""
    if not rings:
        raise RingError("empty product")
    return _block_ring(rings, lambda b1, b2: b1 if b1 == b2 else None,
                       range(len(rings)), name or "x".join(r.name for r in rings))


def matrix_ring(ring: FiniteRing, n: int, name: str | None = None) -> FiniteRing:
    """n×n matrices over a unital ring, on the matrix-unit generator basis:
    block i·n + j is R·e_ij, and e_ij·e_jl = e_il."""
    if not ring.is_unital:
        raise NotUnital("matrix ring needs a unital coefficient ring")
    if n < 1:
        raise RingError("matrix size must be >= 1")

    def product(b1: int, b2: int) -> int | None:
        (i, j), (jj, l) = divmod(b1, n), divmod(b2, n)
        return i * n + l if j == jj else None
    return _block_ring([ring] * (n * n), product, [i * n + i for i in range(n)],
                       name or f"m{n}({ring.name})")


def group_ring(ring: FiniteRing, cayley, name: str | None = None) -> FiniteRing:
    """Group ring R[H] for unital R and H given by a Cayley table of indices:
    one block R·h per element h."""
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
    return _block_ring([ring] * n, lambda h1, h2: cayley[h1][h2], [ident],
                       name or f"{ring.name}[H{n}]")


# -- kernels and preimages ------------------------------------------------------------

class AdditiveMap:
    """An additive map into Z^m modulo the full-rank row lattice `relations`.

    It sends `sources[i]` to `images[i]`; `sources` (default: the generators
    of `group`) span the preimage lattice of a subgroup of `group`, on which
    the map must be well defined.  The Hermite form of the graph lattice
    [[images | sources], [relations | 0]] has full rank m + n, so it is m
    rows with pivots on the image columns and then n rows that vanish
    there.  Those n rows give the `kernel`; every `preimage` is the
    back-substitution of [target | 0] down the first m.
    """

    __slots__ = ("group", "kernel", "_graph")

    def __init__(self, group: AdditiveGroup, images, relations, sources=None):
        n, m = group.rank, len(relations)
        if sources is None:
            sources = group.generators
        rows = [list(y) + list(x) for y, x in zip(images, sources)]
        rows.extend(list(r) + [0] * n for r in relations)
        hnf = hermite_form(rows, m + n)
        if len(hnf) != m + n:
            raise RingError("the graph lattice is not of full rank")
        # a kernel key that misses a relation means the map is not well
        # defined on the group
        key = checked_key(group, tuple(row[m:] for row in hnf[m:]))
        self.group = group
        self.kernel = group.subgroup(key)
        self._graph = hnf[:m]

    def preimage(self, target) -> Element | None:
        """Some x with f(x) = target, or None when target is not an image."""
        solved = hermite_solve(self._graph, list(target) + [0] * self.group.rank)
        if solved is None:
            return None
        return self.group.reduce(-a for a in solved[1][len(self._graph):])


# -- join closure and atoms ----------------------------------------------------

def join_closure(base: Iterable[Subgroup], count_cap: int, above: dict | None = None):
    """(all joins of members of `base` sorted by key, exhaustive).

    Depth first from the last subgroup found; once `count_cap` are known, the
    next new join stops the search, so a capped result is fixed by `base`.
    An exhaustive search joins every member with every member of `base`;
    given `above`, it maps each member's key to the keys of those joins that
    are strictly larger than the member.
    """
    gens: dict = {}
    for sub in base:
        gens.setdefault(sub.key, sub)
    found = dict(gens)
    frontier = list(gens.values())
    exhaustive = True
    while frontier and exhaustive:
        cur = frontier.pop()
        larger = None if above is None else above.setdefault(cur.key, set())
        for b in gens.values():
            joined = cur.join(b)
            if larger is not None and joined.size != cur.size:
                larger.add(joined.key)
            if joined.key in found:
                continue
            if len(found) >= count_cap:
                exhaustive = False
                break
            found[joined.key] = joined
            frontier.append(joined)
    return sorted(found.values(), key=lambda s: s.key), exhaustive


def cover(base: Subgroup, sub: Subgroup, close) -> Subgroup:
    """A closed subgroup in `sub` that covers the closed `base` ⊊ sub.

    `close(x)` is the least closed subgroup containing x, and joins of
    closed subgroups are closed; so the closed subgroups just above `base`
    are base + close(y) for y outside it, one y per coset of `base`.
    """
    for y in itertools.islice(sub.transversal(base), 1, None):
        smaller = base.join(close(y))
        if smaller != sub:
            return cover(base, smaller, close)
    return sub


def chain_length(start: Subgroup, close) -> int:
    """Length of a maximal chain of closed subgroups from the closed `start`
    up to the whole group, one cover per step; by Jordan–Hölder every
    maximal chain has this length."""
    group = start.group
    top = Subgroup.from_generators(group, group.generators)
    length = 0
    while start != top:
        start = cover(start, top, close)
        length += 1
    return length


def minimal_closures(group: AdditiveGroup, close) -> list[Subgroup]:
    """All atoms of the lattice of closed subgroups of `group`, sorted by
    key: the closures of single elements that cover zero (see `cover`)."""
    zero = Subgroup.zero(group)
    closures: dict = {}
    for x in group.elements():
        if any(x):
            c = close(x)
            closures.setdefault(c.key, c)
    return sorted((c for c in closures.values() if cover(zero, c, close) == c),
                  key=lambda s: s.key)


# -- ideals and subrings ------------------------------------------------------

def shared_side(ring: FiniteRing, side: str, exact: bool = True) -> str:
    """The side whose product serves `side`: LEFT on a commutative ring
    when the product is exact, else `side` itself.

    On a commutative ring g·x = x·g, so a subgroup is a left ideal iff it is
    a right ideal iff it is a two-sided one, and S + R·S is the ideal S
    generates on every side.  Every exact side-indexed product is then
    computed once, for LEFT, and relabelled with the side asked for
    (`sided`).  A sampled product draws its sample with a seed that
    depends on the side, so it keeps one result per side (`exact` false).
    """
    return LEFT if exact and ring.is_commutative else side


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
    def from_basis(cls, ring: FiniteRing, side: str, gens) -> "Ideal":
        ideal = cls(ring, side, Subgroup.from_generators(ring.additive, gens))
        if not ideal.verify_closure():
            raise RingError("generators do not span a sided ideal")
        return ideal

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring is other.ring
                and self.side == other.side and self.sub == other.sub)

    def __hash__(self):
        return hash((id(self.ring), self.side, self.sub.key))

    def __repr__(self):
        return f"Ideal({self.side}, size={self.size}, basis={list(self.basis)})"


def sided(store: dict, key: tuple, ring: FiniteRing, side: str, compute,
          exact: bool = True):
    """`compute(s)` for s = `shared_side(ring, side, exact)`, relabelled
    with `side` when s is not `side`, and cached in `store` under
    key + (side,): the one memo of side-indexed products, so that no caller
    knows which sides share a result.  A side that shares s is filled once
    from the entry of s."""
    memo = key + (side,)
    if memo not in store:
        shared = shared_side(ring, side, exact)
        store[memo] = (compute(side) if shared == side else
                       relabel(sided(store, key, ring, shared, compute, exact), side))
    return store[memo]


def relabel(value, side: str):
    """`value` with every Ideal in it labelled with `side`: itself, those in
    lists, tuples and dict values, and the `witness` of a result record (a
    dataclass with one: `ProperSplittingReport`, `UdimCertificate`), whose
    `side` field, if any, becomes `side`; anything else is returned as is."""
    if isinstance(value, Ideal):
        return Ideal(value.ring, side, value.sub)
    if isinstance(value, list):
        return [relabel(v, side) for v in value]
    if isinstance(value, tuple):
        return tuple([relabel(v, side) for v in value])
    if isinstance(value, dict):
        return {k: relabel(v, side) for k, v in value.items()}
    if hasattr(value, "witness") and is_dataclass(value):
        fields = dict(vars(value), witness=relabel(value.witness, side))
        if "side" in fields:
            fields["side"] = side
        return type(value)(**fields)
    return value


def generated_ideal(ring: FiniteRing, gens: Iterable[Element], side: str) -> Ideal:
    """Smallest sided ideal containing `gens`, as one span.

    With the unitalization convention the left ideal is S + R·S, spanned by
    S and every g·s (g a ring generator), and the right one S + S·R likewise;
    the two-sided ideal is L + L·R for that left ideal L.  Each span is
    closed already, since every product g_j·g_i of generators is an integer
    combination of generators.
    """
    sub = Subgroup.from_generators(ring.additive, gens)
    if side != RIGHT:
        sub = sub.extend([ring.mul(g, b) for b in sub.basis for g in ring.generators()])
    if side != LEFT:
        sub = sub.extend([ring.mul(b, g) for b in sub.basis for g in ring.generators()])
    return Ideal(ring, side, sub)


# -- coordinates on subquotients ------------------------------------------------

class Coordinates:
    """Smith-form coordinates on a subquotient A/L of the group ⊕_i Z/d_i.

    A and L ⊆ A are the row lattices of the full-rank Hermite keys `above`
    and `below` (pivot i in row i).  Elements are written in A's coordinates
    by integer back-substitution down `above`; a remainder means the element
    is not in A.  The Smith form of `below` in those coordinates gives
    `image` = ⊕_t Z/c_t and the integer matrices of `project` (a reduced
    element of A to its image coordinates) and `lift`; `generators` lift the
    coordinate generators.

    When `above` is the identity key, A is the whole group (every quotient,
    and every image of a whole ring, such as Z/5 × Z/8 → Z/40): the
    back-substitution down the identity returns the vector itself, so
    `project` applies the Smith matrix alone.  A whole ring whose cyclic
    orders form a divisibility chain never gets here: its image is itself
    (`SubringView.image`, `quotient_by_ideal`).
    """

    def __init__(self, group: AdditiveGroup, above, below):
        k = group.rank
        self.group = group
        self._above = above
        self._whole = above == group.generators
        diag, v, vinv = smith_form([self._solve(r) for r in below], k)
        kept = [j for j in range(k) if diag[j] > 1]
        lift = mat_mul([vinv[j] for j in kept], above)
        self.image = AdditiveGroup(tuple(diag[j] for j in kept))
        self._project = [tuple(r[j] for r in v) for j in kept]
        self._lift = [tuple(r[i] for r in lift) for i in range(k)]
        self.generators = [group.reduce(r) for r in lift]
        self._domain = [g for g in map(group.reduce, above) if any(g)]

    def _solve(self, x):
        """The integer y with y·above = x, or RingError when x is not in A;
        x itself when `above` is the identity key."""
        if self._whole:
            return x
        solved = hermite_solve(self._above, x)
        if solved is None:
            raise RingError(f"{tuple(x)} is not in the subgroup")
        return solved[0]

    def project(self, x: Element) -> Element:
        y = self._solve(x)
        return tuple(sum(a * c for a, c in zip(y, col)) % d
                     for col, d in zip(self._project, self.image.cyclic_orders))

    def lift(self, y: Element) -> Element:
        return tuple(sum(a * c for a, c in zip(y, col)) % d
                     for col, d in zip(self._lift, self.group.cyclic_orders))

    def check(self, op, image_op) -> None:
        """Raise RingError unless `project` is an isomorphism for `op`.

        Round trips on the coordinate generators make `project` a bijection
        of A/L onto `image`, and `project` must turn `op` on every pair of
        generators of A into `image_op`.  `image_op` is well defined (a
        validated table), so by biadditivity this proves a ring isomorphism.
        Each generator of A is projected once.
        """
        for t, g in enumerate(self.generators):
            if self.project(g) != self.image.generator(t):
                raise RingError("coordinate maps do not round-trip")
        images = [self.project(a) for a in self._domain]
        for a, pa in zip(self._domain, images):
            for b, pb in zip(self._domain, images):
                if self.project(op(a, b)) != image_op(pa, pb):
                    raise RingError(f"coordinates do not preserve {a}·{b}")


def _coordinate_ring(parent: FiniteRing, coords: Coordinates, order: int,
                     name: str, unit: Element | None = None) -> FiniteRing:
    """The ring that `coords` carry over from `parent`: a copy S proved by
    its isomorphism.

    R itself never comes here: the two entry points return it at once when
    A/L is all of R in R's own coordinates (`_own_image`).  So S's
    coordinates are not R's, such as the Smith orders (6,) of F2×F3's
    (2, 3).  Its table gets the well-definedness check only
    (`_checked_table`), which makes S's product biadditive; then
    `Coordinates.check` proves `project` a ring isomorphism A/L → S, so S's
    product is `parent`'s carried over and associative with it, and no
    associativity loop runs.  The identity is the hint `unit`, the image of
    1_R, checked on S's generators (`checked_identity`).  A copy of full
    order with no hint has none: it is isomorphic to `parent`, which has
    none.  Only a proper subquotient with no hint solves for its identity.
    A copy of full order is all of `parent` in other coordinates, so it
    records (parent, project) for `copy_source`, and the radicals and the
    exhaustive ideal lattices are carried over rather than found again.
    """
    gens = coords.generators
    group, table = _checked_table(
        coords.image.cyclic_orders,
        [[coords.project(parent.mul(a, b)) for b in gens] for a in gens])
    ring = FiniteRing(group, table, None, name=name)
    if ring.order != order:
        raise RingError(f"coordinate ring has order {ring.order}, not {order}")
    coords.check(parent.mul, ring.mul)
    if unit is not None or order != parent.order:
        ring.unit = checked_identity(ring, unit)
    if order == parent.order:
        ring._extra["copy_source"] = (parent, coords.project)
    return ring


def _own_image(parent: FiniteRing, order: int) -> RingImage | None:
    """R itself, with `AdditiveGroup.reduce` as both maps, when a
    subquotient of `order` elements is all of R and R's cyclic orders form
    a divisibility chain d_1 | d_2 | ... | d_k; else None.

    A/L of full order is the whole group modulo zero, so its coordinates
    are the Smith form of diag(d) written in the identity key.  The Smith
    form of a diagonal matrix whose entries divide each other in order is
    that matrix with identity transforms (H. Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, §2.4), so `Coordinates`
    would give R's cyclic orders with `project` and `lift` the reduction,
    and the table carried over would be `parent.mul_table` entry for entry,
    validated when `parent` was built.  Returning R drops no verification,
    builds no `Coordinates`, and lets R^G under G = 1 and R/0 share R's
    object and its caches.  Otherwise the invariant factors differ from the
    orders as a sequence, so the image is a copy in other coordinates.
    """
    orders = parent.cyclic_orders
    if order != parent.order or any(b % a for a, b in zip(orders, orders[1:])):
        return None
    reduce = parent.additive.reduce
    return RingImage(parent, reduce, reduce)


def copy_source(ring: FiniteRing) -> tuple[FiniteRing, Callable] | None:
    """(R, project) when `ring` is a checked full-order copy of R, so that
    `project` is a ring isomorphism R → ring (`_coordinate_ring`); else
    None.  A pickled ring drops the record with its other caches."""
    return ring._extra.get("copy_source")


@dataclass
class RingImage:
    """An abstract copy of a subquotient with coordinate maps both ways."""

    ring: FiniteRing
    to_image: Callable[[Element], Element]
    from_image: Callable[[Element], Element]


class SubringView:
    """A multiplicatively closed additive subgroup of a parent ring.

    The closure loop runs on a proper subgroup only: a subgroup of size
    |R| is all of R (its key is the identity), so every product is a member
    and the loop could not raise.
    """

    __slots__ = ("ring", "sub")

    def __init__(self, ring: FiniteRing, sub: Subgroup):
        self.ring = ring
        self.sub = sub
        if sub.size == ring.order:
            return
        for a in sub.basis:
            for b in sub.basis:
                if not sub.contains(ring.mul(a, b)):
                    raise RingError("subgroup is not multiplicatively closed")

    @classmethod
    def from_elements(cls, ring: FiniteRing, elems) -> "SubringView":
        return cls(ring, Subgroup.from_generators(ring.additive, elems))

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

        The whole ring, when its cyclic orders form a divisibility chain, is
        its own image, with no coordinates built (`_own_image`): so is R^G
        under G = 1.  Otherwise the coordinates are those of the order
        relations written in the subgroup's Hermite key.  When 1_R lies in
        the subgroup (as it does in every fixed ring of a unital R), its
        image is passed to `checked_identity` as the identity to check;
        otherwise a proper subring solves for its identity
        (`_coordinate_ring`).  The image is memoized on the parent ring by
        that key, so every view of one subgroup shares one ring and its
        caches, under the name of the first request.
        """
        def compute():
            parent, group = self.ring, self.ring.additive
            own = _own_image(parent, self.sub.size)
            if own is not None:
                return own
            coords = Coordinates(group, self.sub.key, group.relations)
            unit = (coords.project(parent.unit)
                    if parent.is_unital and self.sub.contains(parent.unit) else None)
            ring = _coordinate_ring(parent, coords, self.sub.size,
                                    name or f"{parent.name}^sub", unit)
            return RingImage(ring, coords.project, coords.lift)
        return cached(self.ring._extra, ("image", self.sub.key), compute)

    def __repr__(self):
        return f"SubringView(size={self.size}, basis={list(self.basis)})"


def quotient_by_ideal(parent: FiniteRing, ideal: Ideal, name: str | None = None) -> RingImage:
    """Quotient by a two-sided ideal; the projection is a verified ring map.

    R/0 is R itself when R's cyclic orders form a divisibility chain, with
    no coordinates built (`_own_image`).  Otherwise the coordinates are
    those of the ideal's key under the whole group's key, the unit vectors.
    """
    if ideal.side != TWOSIDED:
        raise WrongSide("can only quotient by a two-sided ideal")
    own = _own_image(parent, parent.order // ideal.size)
    if own is not None:
        return own
    group = parent.additive
    coords = Coordinates(group, group.generators, ideal.sub.key)
    unit = coords.project(parent.unit) if parent.is_unital else None
    ring = _coordinate_ring(parent, coords, parent.order // ideal.size,
                            name or f"{parent.name}/I", unit)
    return RingImage(ring, coords.project, coords.lift)
