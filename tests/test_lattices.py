import random

import pytest

from ringinv.lattices import (
    hermite_extend,
    hermite_form,
    identity_matrix,
    in_hermite_span,
    mat_mul,
    smith_form,
    solve_mod_p,
    vec_mat,
)


def random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def min_pivot_hermite(rows, width):
    """Oracle: the Hermite form by repeated min-pivot elimination down each
    column, then reduction above the pivot (the package's former kernel)."""
    a = [list(r) for r in rows if any(r)]
    m = len(a)
    r = 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, m) if a[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r + 1, m):
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            if not any(a[i][c] for i in range(r + 1, m)):
                break
        if r < m and a[r][c]:
            for i in range(r):
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return tuple(tuple(row) for row in a[:r])


def random_full_rank_key(rng, n):
    """A random full-rank Hermite form: pivot i in row i."""
    diag = [[rng.randint(1, 9) if i == j else 0 for j in range(n)] for i in range(n)]
    key = hermite_form(diag + random_matrix(rng, rng.randint(0, 3), n), n)
    assert len(key) == n
    return key


def test_hermite_matches_min_pivot_oracle():
    """Negative entries, zero rows, rank deficiency, more rows than columns."""
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(1, 7)
        rows = random_matrix(rng, rng.randint(0, 9), n, -12, 12)
        if rows and rng.random() < 0.5:
            # rank deficient: one row a combination of two others
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows.append([2 * a - 3 * b for a, b in zip(rows[i], rows[j])])
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), [0] * n)
        assert hermite_form(rows, n) == min_pivot_hermite(rows, n), rows


def test_hermite_matches_oracle_on_graph_lattices():
    """The wide [images | sources], [relations | 0] shape of `AdditiveMap`."""
    rng = random.Random(23)
    for _ in range(150):
        k, m = rng.randint(1, 4), rng.randint(1, 4)
        orders = [rng.choice((2, 3, 4, 6, 8, 9)) for _ in range(k)]
        targets = [rng.choice((2, 3, 4, 5, 12)) for _ in range(m)]
        rows = [[rng.randrange(d) for d in targets] + [int(i == j) for j in range(k)]
                for i in range(k)]
        rows += [[d if j == i else 0 for j in range(m)] + [0] * k
                 for i, d in enumerate(targets)]
        rng.shuffle(rows)
        assert hermite_form(rows, m + k) == min_pivot_hermite(rows, m + k)
        rel = [[d if j == i else 0 for j in range(k)] for i, d in enumerate(orders)]
        sources = [[rng.randrange(d) for d in orders] for _ in range(k)]
        graph = [[rng.randrange(d) for d in targets] + s for s in sources]
        graph += [[d if j == i else 0 for j in range(m)] + [0] * k
                  for i, d in enumerate(targets)]
        graph += [[0] * m + r for r in rel]
        assert hermite_form(graph, m + k) == min_pivot_hermite(graph, m + k)


def test_hermite_extend_equals_hermite_of_union():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 6)
        key = random_full_rank_key(rng, n)
        vs = random_matrix(rng, rng.randint(0, 4), n, -9, 9)
        assert hermite_extend(key, vs) == hermite_form(list(key) + vs, n)


def test_hermite_extend_returns_key_itself_inside_the_span():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        key = random_full_rank_key(rng, n)
        members = [[sum(c * row[j] for c, row in zip(coeffs, key)) for j in range(n)]
                   for coeffs in random_matrix(rng, rng.randint(0, 4), n)]
        assert hermite_extend(key, members) is key
        outside = [1] + [0] * (n - 1)
        if key[0][0] > 1:
            assert hermite_extend(key, members + [outside]) is not key


def test_hermite_canonical_under_row_mixing():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        rows = random_matrix(rng, m, n)
        h1 = hermite_form(rows, n)
        # shuffle, negate, and add random integer combinations: same lattice
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        for _ in range(4):
            if len(mixed) >= 2:
                i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
                if i != j:
                    q = rng.randint(-3, 3)
                    mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
        mixed.append([0] * n)
        assert hermite_form(mixed, n) == h1


def test_hermite_span_membership():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        key = random_full_rank_key(rng, n)
        for _ in range(5):
            # integer combinations of the rows are members
            coeffs = [rng.randint(-3, 3) for _ in key]
            v = [sum(c * r[j] for c, r in zip(coeffs, key)) for j in range(n)]
            assert in_hermite_span(key, v)
            # a unit vector in a column whose pivot is not 1 is not
            for c in range(n):
                if key[c][c] > 1:
                    v[c] += 1
                    assert not in_hermite_span(key, v)
                    v[c] -= 1
        assert in_hermite_span(key, [0] * n)
    # a rank-deficient form is not a key
    with pytest.raises(ValueError):
        in_hermite_span(hermite_form([[1, 2]], 2), [2, 4])


def test_hermite_pivot_shape():
    h = hermite_form([[4, 1], [0, 2]], 2)
    for row in h:
        pivot_col = next(i for i, x in enumerate(row) if x)
        assert row[pivot_col] > 0
    # entries above a pivot are reduced mod the pivot
    h2 = hermite_form([[1, 5], [0, 3]], 2)
    assert h2 == ((1, 2), (0, 3))


def test_smith_transforms_are_inverse_and_preserve_lattice():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        rows = random_matrix(rng, m, n)
        d, v, vinv = smith_form(rows, n)
        ident = identity_matrix(n)
        assert mat_mul(v, vinv) == ident
        assert mat_mul(vinv, v) == ident
        # divisibility chain among the nonzero invariant factors
        nz = [x for x in d if x]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert all(x == 0 for x in d[len(nz):])
        # lattice(rows)·V equals lattice(diag(d))
        transformed = [list(vec_mat(r, v)) for r in rows]
        diag_rows = [[d[i] if j == i else 0 for j in range(n)] for i in range(n)]
        assert hermite_form(transformed, n) == hermite_form(diag_rows, n)


def test_smith_of_diagonal():
    d, _, _ = smith_form([[4, 0], [0, 6]], 2)
    assert d == [2, 12]


def test_vec_mat():
    assert vec_mat((1, 2), [[1, 0, 1], [0, 1, 1]]) == (1, 2, 3)


def test_solve_mod_p_consistent_and_nullspace():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(30):
            nvars = rng.randint(1, 5)
            neq = rng.randint(1, 6)
            eqs = [[rng.randrange(p) for _ in range(nvars)] for _ in range(neq)]
            x0 = [rng.randrange(p) for _ in range(nvars)]
            rhs = [sum(c * x for c, x in zip(eq, x0)) % p for eq in eqs]
            out = solve_mod_p(eqs, rhs, nvars, p)
            assert out is not None
            part, basis = out
            for eq, b in zip(eqs, rhs):
                assert sum(c * x for c, x in zip(eq, part)) % p == b % p
            for vec in basis:
                for eq in eqs:
                    assert sum(c * x for c, x in zip(eq, vec)) % p == 0


def test_solve_mod_p_inconsistent():
    assert solve_mod_p([[1, 1], [1, 1]], [0, 1], 2, 2) is None
