"""Exact integer matrix forms used throughout the package.

Additive subgroups of a finite abelian group ⊕ Z/d_i are canonicalized by the
Hermite normal form of their preimage lattice in Z^k.  One kernel, `_insert`,
adds a vector to echelon rows by extended-gcd row steps; `hermite_extend`
grows a full-rank key by the vectors outside its span (the key itself when
there are none), so subgroup keys are never rebuilt from scratch.  The one
from-scratch `hermite_form` left is that of a graph lattice, which gives
kernels and preimages (`ring_core.AdditiveMap`).  Back-substitution runs
down echelon rows with pivot i in row i: `hermite_solve` gives coordinates
in a key (`ring_core.Coordinates`) and those preimages; `in_hermite_span`
is the same walk without coefficients, for membership; `hermite_reduce`
gives the least coset representative modulo a key
(`ring_core.Subgroup.coset_rep`).
Quotients and subring coordinate systems come from the Smith normal form
with tracked column transforms.  `solve_mod_p`, Gaussian elimination over
Z/p, has no caller in the engine; it stays as a tested primitive that the
benchmark tracer also times.  Everything is arbitrary-precision integer
arithmetic.
"""

from __future__ import annotations

Row = tuple[int, ...]


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def vec_mat(v, m) -> tuple:
    """Row vector times matrix."""
    width = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(width))


def mat_mul(a, b) -> list[list]:
    return [list(vec_mat(row, b)) for row in a]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s·a + t·b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _insert(piv: list, v) -> None:
    """Add the integer vector `v` to the echelon rows `piv`, indexed by pivot
    column (None where a column has no pivot), by unimodular steps.

    At the first column c where v has an entry x: an empty slot takes v; a
    pivot p dividing x clears it by subtracting a multiple of its row;
    otherwise [row; v] <- [[s, t], [-x/g, p/g]]·[row; v] with s·p + t·x = g,
    which leaves g in the slot and clears x.  Entries are not reduced here.
    """
    v = list(v)
    n = len(v)
    for c in range(n):
        x = v[c]
        if not x:
            continue
        row = piv[c]
        if row is None:
            piv[c] = v
            return
        p = row[c]
        if x % p == 0:
            q = x // p
            for j in range(c, n):
                v[j] -= q * row[j]
        else:
            g, s, t = _xgcd(p, x)
            a, b = -x // g, p // g
            piv[c] = [s * r + t * y for r, y in zip(row, v)]
            v = [a * r + b * y for r, y in zip(row, v)]


def _reduced(piv: list) -> tuple[Row, ...]:
    """The canonical Hermite form of echelon rows from `_insert`: pivots made
    positive and entries above each pivot reduced into [0, pivot)."""
    rows = [(c, row) for c, row in enumerate(piv) if row is not None]
    for t, (c, row) in enumerate(rows):
        if row[c] < 0:
            row[:] = [-x for x in row]
        p = row[c]
        for _, above in rows[:t]:
            q = above[c] // p
            if q:
                for j in range(c, len(row)):
                    above[j] -= q * row[j]
    return tuple(tuple(row) for _, row in rows)


def hermite_form(rows, width: int) -> tuple[Row, ...]:
    """Canonical row Hermite form of the integer span of `rows`.

    Returns only the nonzero rows: row echelon, positive pivots, and entries
    above each pivot reduced into [0, pivot).  Two row sets span the same
    lattice iff their Hermite forms are equal.
    """
    piv: list = [None] * width
    for r in rows:
        _insert(piv, r)
    return _reduced(piv)


def hermite_extend(key: tuple[Row, ...], vectors) -> tuple[Row, ...]:
    """Hermite form of the span of the full-rank Hermite form `key` (pivot i
    in row i) and `vectors`.

    Returns `key` itself, the same object, when every vector already lies in
    its span; from the first vector outside it on, the vectors are inserted
    into a copy.
    """
    piv = None
    for v in vectors:
        if piv is None:
            if in_hermite_span(key, v):
                continue
            piv = [list(row) for row in key]
        _insert(piv, v)
    return key if piv is None else _reduced(piv)


def hermite_solve(rows, v):
    """Back-substitution of the integer vector `v` down echelon `rows` whose
    row i has its pivot in column i.

    Returns (y, rest) with rest = v − y·rows, zero in the pivot columns, or
    None at the first pivot that does not divide what is left of v there.
    """
    rest, y = list(v), []
    for c, row in enumerate(rows):
        q, r = divmod(rest[c], row[c])
        if r:
            return None
        if q:
            for j in range(c, len(rest)):
                rest[j] -= q * row[j]
        y.append(q)
    return y, rest


def in_hermite_span(key: tuple[Row, ...], v) -> bool:
    """Membership of an integer vector in the span of a square Hermite key:
    the back-substitution of `hermite_solve` without its coefficients, and
    with no step for a column already zero."""
    if len(key) != len(v):
        raise ValueError(f"{len(key)} key rows for width {len(v)}: not square")
    rest = list(v)
    for c, row in enumerate(key):
        x = rest[c]
        if x:
            q, r = divmod(x, row[c])
            if r:
                return False
            for j in range(c + 1, len(rest)):
                rest[j] -= q * row[j]
    return True


def hermite_reduce(key: tuple[Row, ...], v) -> Row:
    """The least representative of v modulo the span of a square Hermite key:
    v minus the multiple of each row, top down, that leaves its pivot column
    in [0, pivot).  A row touches no column left of its pivot, so the
    columns already reduced stay so, and two vectors get the same result iff
    they differ by a member of the span (zero iff v lies in it)."""
    rest = list(v)
    for c, row in enumerate(key):
        q = rest[c] // row[c]
        if q:
            for j in range(c, len(rest)):
                rest[j] -= q * row[j]
    return tuple(rest)


def smith_form(rows, width: int):
    """Smith form of the row lattice of `rows`, tracking column transforms.

    Returns (d, v, vinv) where d is the list of invariant factors (length
    `width`, divisibility chain, trailing zeros on rank deficiency) and v,
    vinv are mutually inverse unimodular matrices with
    row_lattice(rows)·v = row_lattice(diag(d)).
    """
    n = width
    a = [list(r) for r in rows] or [[0] * n]
    m = len(a)
    v = identity_matrix(n)
    vinv = identity_matrix(n)

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_addmul(j: int, i: int, q: int) -> None:
        # column_j += q * column_i ; inverse op applied to rows of vinv
        for row in a:
            row[j] += q * row[i]
        for row in v:
            row[j] += q * row[i]
        vinv[i] = [x - q * y for x, y in zip(vinv[i], vinv[j])]

    t = 0
    limit = min(m, n)
    while t < limit:
        entries = [(i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not entries:
            break
        while True:
            entries = [(i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
            i0, j0 = min(entries, key=lambda ij: (abs(a[ij[0]][ij[1]]), ij))
            if i0 != t:
                a[t], a[i0] = a[i0], a[t]
            if j0 != t:
                col_swap(t, j0)
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_addmul(j, t, -q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot row/column clean; enforce divisibility over the rest
            p = a[t][t]
            bad = None
            for i in range(t + 1, m):
                if any(a[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        t += 1
    d = [a[i][i] if i < t else 0 for i in range(n)]
    return d, v, vinv


def solve_mod_p(equations, rhs, nvars: int, p: int):
    """Solve a linear system over Z/p (p prime).

    `equations` is a list of coefficient rows of length nvars, `rhs` the
    right-hand sides.  Returns (particular, nullspace_basis) or None when the
    system is inconsistent.  The particular solution has free variables set
    to zero; the nullspace basis rows are in free-variable order.
    """
    rows = [[c % p for c in eq] + [b % p] for eq, b in zip(equations, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(nvars):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p) if p > 2 else rows[r][c]
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][nvars]:
            return None
    particular = [0] * nvars
    for i, c in enumerate(pivots):
        particular[c] = rows[i][nvars]
    free = [c for c in range(nvars) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * nvars
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-rows[i][f]) % p
        basis.append(vec)
    return particular, basis
