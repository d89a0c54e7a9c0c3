"""Exact integer matrix forms used throughout the package.

Additive subgroups of a finite abelian group ⊕ Z/d_i are canonicalized by the
Hermite normal form of their preimage lattice in Z^k, which on a graph
lattice also gives kernels and preimages (`ring_core.AdditiveMap`);
quotients and subring coordinate systems come from the Smith normal form
with tracked column transforms.  The engine no longer calls `solve_mod_p`.
Everything is arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

Row = tuple[int, ...]


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def vec_mat(v, m) -> tuple:
    """Row vector times matrix."""
    width = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(width))


def mat_mul(a, b) -> list[list]:
    return [list(vec_mat(row, b)) for row in a]


def hermite_form(rows, width: int) -> tuple[Row, ...]:
    """Canonical row Hermite form of the integer span of `rows`.

    Returns only the nonzero rows: row echelon, positive pivots, and entries
    above each pivot reduced into [0, pivot).  Two row sets span the same
    lattice iff their Hermite forms are equal.
    """
    a = [list(r) for r in rows if any(r)]
    m = len(a)
    r = 0
    for c in range(width):
        if not any(a[i][c] for i in range(r, m)):
            continue
        while True:
            nz = [i for i in range(r, m) if a[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            clean = True
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c]:
                        clean = False
            if clean:
                break
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return tuple(tuple(row) for row in a[:r])


def in_hermite_span(hnf: tuple[Row, ...], v) -> bool:
    """Membership of an integer vector in the row span given by a Hermite form."""
    vec = list(v)
    pivots = []
    for row in hnf:
        c = next(i for i, x in enumerate(row) if x)
        pivots.append((c, row))
    for c, row in pivots:
        if vec[c] % row[c]:
            return False
        q = vec[c] // row[c]
        if q:
            vec = [x - q * y for x, y in zip(vec, row)]
    return not any(vec)


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


def invert_matrix(m) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular square integer matrix."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


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
