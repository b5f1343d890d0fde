"""Exact arbitrary-precision integer/rational linear algebra.

Vectors are tuples of Python ints, matrices are tuples of such rows.
Everything here is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from math import gcd
from operator import mul

import numpy as np

from .errors import DimensionError, InternalConsistencyError, SingularMatrixError

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]

# magnitude bound below which int64 arithmetic is trusted (one bit spare)
INT64_SAFE = 1 << 62


def int_dtype(bound: int) -> object:
    """Array dtype for integers of magnitude at most `bound`: exact int64
    below INT64_SAFE, Python ints (object) otherwise."""
    return np.int64 if bound < INT64_SAFE else object


def as_vec(entries) -> IntVec:
    return tuple(int(x) for x in entries)


def as_mat(rows) -> IntMat:
    m = tuple(as_vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionError("rows have unequal lengths")
    return m


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def dot(u, v) -> int:
    if len(u) != len(v):
        raise DimensionError(f"dot of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def mat_vec(m, v) -> IntVec:
    return tuple(dot(row, v) for row in m)


def vec_mat(v, m) -> IntVec:
    # row vector times matrix
    if len(v) != len(m):
        raise DimensionError(f"vector of length {len(v)} times {len(m)} rows")
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


def matmul(a, b) -> IntMat:
    return tuple(vec_mat(row, b) for row in a)


def transpose(m) -> IntMat:
    return tuple(zip(*m)) if m else ()


def content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v) -> IntVec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = content(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _gauss_jordan(m: IntMat) -> tuple[int, IntMat] | None:
    """(det, adj) of m by fraction-free Gauss-Jordan elimination of [m | I].

    Each step k clears column k above and below the pivot and divides
    the updated rows by the previous pivot.  By Sylvester's identity
    (Bareiss 1968) the divisions are exact and the entries stay minors
    of [m | I]; at the end the left block is p·I for the last pivot
    p = ±det and the right block is p·m^-1.  Column k and those left of
    it are never read again, so they are not updated.  None if m is
    singular.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionError("expected a square matrix")
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        pk = rk[k]
        for i, ri in enumerate(a):
            if i != k:
                aik = ri[k]
                for j in range(k + 1, 2 * n):
                    ri[j] = (ri[j] * pk - aik * rk[j]) // prev
        prev = pk
    return sign * prev, tuple(tuple(sign * x for x in r[n:]) for r in a)


def determinant(m: IntMat) -> int:
    """Signed determinant; 0 for a singular matrix."""
    out = _gauss_jordan(m)
    return 0 if out is None else out[0]


def independent_rows(rows, ncols: int) -> list[int]:
    """Indices of the greedy (first-come) maximal independent subset: a
    row is kept iff it does not reduce to zero, fraction-free, against
    the primitive rows kept so far (each zero on the earlier pivots)."""
    kept: list[tuple[int, IntVec]] = []
    out = []
    for i, r in enumerate(rows):
        w = [int(x) for x in r]
        for p, row in kept:
            if w[p]:
                wp, rp = w[p], row[p]
                w = [wi * rp - ri * wp for wi, ri in zip(w, row)]
        p = next((j for j in range(ncols) if w[j]), None)
        if p is not None:
            kept.append((p, primitive(w)))
            out.append(i)
    return out


def adjugate(m: IntMat) -> tuple[IntMat, int]:
    """Return (adj, det) with m·adj = adj·m = det·I, all entries integer."""
    out = _gauss_jordan(m)
    if out is None:
        raise SingularMatrixError("adjugate of singular matrix")
    det, adj = out
    if matmul(m, adj) != tuple(tuple(det if i == j else 0 for j in range(len(m)))
                               for i in range(len(m))):
        raise InternalConsistencyError("adjugate failed exactness check")
    return adj, det


def lll_reduce(basis) -> tuple[IntMat, IntMat]:
    """(reduced, h): an LLL-reduced basis (δ = 3/4) of the lattice spanned
    by the rows of `basis`, with reduced = h·basis and h unimodular.  The
    rows must be linearly independent; dependent rows raise
    SingularMatrixError.

    Integral LLL (Cohen, Alg. 2.6.7): d[i] is the Gram determinant of
    the first i rows and lam[k][j] = d[j+1]·μ_kj, both integers, updated
    incrementally by size reduction and swaps, so no rational is formed.
    """
    b = [list(r) for r in as_mat(basis)]
    n = len(b)
    h = [list(r) for r in identity(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, j):  # make |μ_kj| <= 1/2
        lk, lj, dj = lam[k], lam[j], d[j + 1]
        if 2 * abs(lk[j]) <= dj:
            return
        q = (2 * lk[j] + dj) // (2 * dj)
        b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        h[k] = [x - q * y for x, y in zip(h[k], h[j])]
        lk[j] -= q * dj
        for i in range(j):
            lk[i] -= q * lj[i]

    k, kmax = 1, 0
    if n:
        d[1] = dot(b[0], b[0])
        if not d[1]:
            raise SingularMatrixError("lll_reduce of dependent rows")
    while k < n:
        if k > kmax:  # Gram-Schmidt data of the new row k
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif not u:
                    raise SingularMatrixError("lll_reduce of dependent rows")
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * m * m:
            # swap rows k-1 and k; d[k] and the lam of columns k-1, k change
            b[k - 1], b[k] = b[k], b[k - 1]
            h[k - 1], h[k] = h[k], h[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            new = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
            d[k] = new
            k = max(1, k - 1)
            continue
        for j in range(k - 2, -1, -1):
            reduce(k, j)
        k += 1
    return tuple(map(tuple, b)), tuple(map(tuple, h))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a·x + b·y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hermite_mod(rows, det: int) -> IntMat:
    """Upper-triangular basis, modulo det, of the lattice L spanned by
    `rows` and det·Z^n (Domich-Kannan-Trotter 1987).

    Row i is zero left of column i and has the pivot t_i in column i,
    a divisor of det in (0, det]; its other entries lie in [0, det).  A
    row with t_i = det is det·e_i.  The t_i multiply to the index of L
    in Z^n, and the rows with t_i < det, taken with coefficients in
    [0, det/t_i), reach every class of L / det·Z^n exactly once.

    Column i folds the pool of rows, all zero left of it, into one row a
    by extended-gcd steps on pairs of rows, which keep the pool's span
    and leave the other row zero in column i.  With u·a_i ≡ g (mod det)
    and g = gcd(a_i, det), the basis row is u·a; -(det/g)·a, zero in
    column i modulo det, goes back into the pool, so the pool still
    spans L modulo det.  All entries stay in [0, det).
    """
    n = len(rows[0]) if rows else 0
    pool = [[x % det for x in row] for row in rows]
    out = []
    for i in range(n):
        a, rest = None, []
        for b in pool:
            if b[i] and a is None:
                a = b
                continue
            if b[i]:
                g, u, v = _xgcd(a[i], b[i])
                x, y = a[i] // g, b[i] // g
                a, b = ([(u * p + v * q) % det for p, q in zip(a, b)],
                        [(x * q - y * p) % det for p, q in zip(a, b)])
            rest.append(b)
        if a is None:
            out.append(tuple(det if j == i else 0 for j in range(n)))
        else:
            g, u, _ = _xgcd(a[i], det)
            out.append(tuple(u * p % det for p in a))
            rest.append([-(det // g) * p % det for p in a])
        pool = rest
    return tuple(out)


def sublattice(rows, dim: int) -> tuple[IntMat, IntMat, IntMat]:
    """(basis, coords, kernel) of the rows from one column echelon.

    Extended-gcd steps on pairs of columns fold each row into its pivot
    column: rows·u = [h | 0] with u unimodular and h of rank k, and u^-1
    is kept alongside (a column step E = [[x, -q], [y, p]] on u is the
    row step E^-1 = [[p, q], [-y, x]] on u^-1).  Then rows = h·u^-1[:k],
    so the first k rows of u^-1 are a basis of span_Q(rows) ∩ Z^dim and
    the last dim - k columns of u a basis of the saturated lattice
    {x in Z^dim : row·x = 0 for all rows}.  Both are returned
    LLL-reduced: `basis` = g·u^-1[:k] and `coords` = h·g^-1, so
    coords·basis = rows.
    """
    rows = as_mat(rows)
    if not rows:
        return (), (), identity(dim)
    if len(rows[0]) != dim:
        raise DimensionError("rows have wrong arity")
    a = [list(r) for r in rows]
    u = [list(r) for r in identity(dim)]  # columns are the transform
    inv = [list(r) for r in identity(dim)]
    k = 0
    for r in a:
        for j in range(k + 1, dim):
            if r[j]:
                g, x, y = _xgcd(r[k], r[j])
                p, q = r[k] // g, r[j] // g
                for row in a + u:
                    row[k], row[j] = x * row[k] + y * row[j], p * row[j] - q * row[k]
                inv[k], inv[j] = ([p * s + q * t for s, t in zip(inv[k], inv[j])],
                                  [x * t - y * s for s, t in zip(inv[k], inv[j])])
        if k < dim and r[k]:
            k += 1
    basis, g = lll_reduce(inv[:k])
    adj, det = adjugate(g)  # det g = ±1, so g^-1 = det·adj
    ginv = tuple(tuple(det * x for x in r) for r in adj)
    coords = matmul(tuple(r[:k] for r in a), ginv)
    if k and matmul(coords, basis) != rows:  # at rank 0 the rows are zero
        raise InternalConsistencyError("restricted coordinates do not give the rows")
    return basis, coords, lll_reduce(transpose(u)[k:])[0]
