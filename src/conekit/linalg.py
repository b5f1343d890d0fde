"""Exact arbitrary-precision integer/rational linear algebra.

Vectors are tuples of Python ints, matrices are tuples of such rows;
stacks of simplices are int64 or object arrays (below).  Everything
here is exact; no floating point is used anywhere.

Every exact inverse is checked and built once: a unimodular transform
carries it through its own steps (lll_reduce, sublattice), and facet
forms come from fraction-free pivots, by pivot on a stack of simplices
in arrays (checked by check_forms) and by basis_forms on one simplex in
Python ints (_pivot_one): at r = 5 an array step on a stack of one costs
about four times as much.  The one int64-or-object policy, int_dtype,
is held by stack, which builds every integer array, and by products,
which makes every exact product.
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


def stack(blocks) -> np.ndarray:
    """Nested integer sequences of one shape as an array: int64 when
    every entry fits, Python ints (object) otherwise."""
    try:
        return np.array(blocks, dtype=np.int64)
    except OverflowError:
        return np.array(blocks, dtype=object)


def magnitude(a: np.ndarray) -> int:
    """The largest absolute entry of an integer array, 0 if it is empty."""
    if not a.size:
        return 0
    if a.dtype == object:
        return max(a.max(), -a.min())
    # as the unsigned type of its width, |-2^(w-1)| is exact too
    return int(np.maximum.reduce(np.abs(a).view(f"u{a.itemsize}"), axis=None))


def products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact a @ b: int64 when the inner dimension times the columns of
    b times the largest entries of a and b, and those entries, are below
    INT64_SAFE, Python ints otherwise.  The columns factor bounds each
    row's sum too: with b = formsᵀ, a row's aux degree."""
    ma, mb = magnitude(a), magnitude(b)
    dtype = int_dtype(max(a.shape[-1] * b.shape[-1] * ma * mb, ma, mb))
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


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
    return gcd(*v)


def primitive(v) -> IntVec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = content(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def pivot(forms: np.ndarray, delta: np.ndarray, u: np.ndarray,
          i) -> tuple[np.ndarray, np.ndarray]:
    """(F', δ') of a stack of simplices, generator i[k] of simplex k
    exchanged for a point x_k.

    forms (k, r, r) hold the simplices' facet forms and delta (k) their
    dets, so F·g_j = δ·e_j for the generators g_j, and u (k, r) = F·x.
    Then δ' = |u_i|, F'_i = sgn(u_i)·F_i and F'_j = sgn(u_i)·(u_i·F_j -
    u_j·F_i)/δ with i = i[k]: one fraction-free pivot (Edmonds 1967;
    Bareiss 1968), whose divisions are exact.  Each one is checked to
    leave remainder 0.  The whole stack is pivoted in int64 when a bound
    from its maxima proves that exact, else in Python ints (object).
    """
    k = np.arange(len(i))
    ui = u[k, i]
    if not ui.all():
        raise SingularMatrixError("pivot on zero: x lies on the facet opposite g_i")
    dtype = int_dtype(2 * magnitude(u) * magnitude(forms) + magnitude(delta))
    forms, delta, u, ui = (a.astype(dtype, copy=False) for a in (forms, delta, u, ui))
    sg, det = np.sign(ui), np.abs(ui)
    fi = forms[k, i]
    num = det[:, None, None] * forms - (sg[:, None] * u)[:, :, None] * fi[:, None, :]
    d = delta[:, None, None]
    # np.divmod has no loop for object arrays
    out, rem = (num // d, num % d) if dtype is object else np.divmod(num, d)
    if rem.any():
        raise InternalConsistencyError("pivot division left a remainder")
    out[k, i] = sg[:, None] * fi
    return out, det


def check_forms(forms: np.ndarray, rows: np.ndarray, det: np.ndarray,
                message: str) -> None:
    """Raise InternalConsistencyError(message) unless forms·rows^T =
    det·I for every simplex of the stacks forms, rows (k, r, r) and det
    (k)."""
    eye = np.eye(forms.shape[1], dtype=np.int64)
    if (products(forms, rows.transpose(0, 2, 1)) != det[:, None, None] * eye).any():
        raise InternalConsistencyError(message)


def basis_forms(rows, n: int) -> tuple[list[int], IntMat, int]:
    """(kept, F, δ): the greedy basis among `rows` and its facet forms.

    The rows are pivoted, first come first served, into the unit basis
    of Z^n.  A row r takes the first position still held by a unit
    vector at which u = forms·r is nonzero; if there is none, r lies in
    the span of the rows taken and is skipped.  The pass stops once
    every position is taken.  kept lists the indices of the rows taken,
    B; row j of F, in the order of kept, vanishes on every row of B but
    the j-th and takes δ on it.  Checked exactly: F·B^T = δ·I.  At full
    rank, F = sgn(det B)·adj(B)^T and δ = |det B| (make_simplicial_cone).
    """
    forms, det = identity(n), 1
    free = list(range(n))
    kept, at = [], []
    for k, r in enumerate(rows):
        if not free:
            break
        u = mat_vec(forms, r)
        i = next((p for p in free if u[p]), None)
        if i is not None:
            forms, det = _pivot_one(forms, det, u, i)
            free.remove(i)
            kept.append(k)
            at.append(i)
    forms = tuple(forms[i] for i in at)
    m = len(kept)
    if [[dot(f, rows[k]) for k in kept] for f in forms] != \
            [[det if j == k else 0 for k in range(m)] for j in range(m)]:
        raise InternalConsistencyError("facet forms failed F·B^T = δ·I")
    return kept, forms, det


def _pivot_one(forms: IntMat, delta: int, u: IntVec, i: int) -> tuple[IntMat, int]:
    """pivot's step on one simplex, in Python ints: forms, u and the
    result are tuples, delta and i ints."""
    sg = 1 if u[i] > 0 else -1
    det = abs(u[i])
    fi = forms[i]
    out = []
    for j, (fj, uj) in enumerate(zip(forms, u)):
        if j == i:
            out.append(tuple(sg * c for c in fi))
            continue
        vj = sg * uj
        row = []
        for a, b in zip(fj, fi):
            q, rem = divmod(det * a - vj * b, delta)
            if rem:
                raise InternalConsistencyError("pivot division left a remainder")
            row.append(q)
        out.append(tuple(row))
    return tuple(out), det


def lll_reduce(basis) -> tuple[IntMat, IntMat, IntMat]:
    """(reduced, h, g): an LLL-reduced basis (δ = 3/4) of the lattice
    spanned by the rows of `basis`, with reduced = h·basis, h unimodular
    and g = (h^-1)^T, checked: h·g^T = I.  The rows must be linearly
    independent; dependent rows raise SingularMatrixError.

    Integral LLL (Cohen, Alg. 2.6.7): d[i] is the Gram determinant of
    the first i rows and lam[k][j] = d[j+1]·μ_kj, both integers, updated
    incrementally by size reduction and swaps, so no rational is formed.
    g follows h's row steps: h[k] -= q·h[j] is g[j] += q·g[k], and a swap
    of two rows of h swaps them in g.
    """
    b = [list(r) for r in as_mat(basis)]
    n = len(b)
    h = [list(r) for r in identity(n)]
    g = [list(r) for r in identity(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, j):  # make |μ_kj| <= 1/2
        lk, lj, dj = lam[k], lam[j], d[j + 1]
        if 2 * abs(lk[j]) <= dj:
            return
        q = (2 * lk[j] + dj) // (2 * dj)
        b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        h[k] = [x - q * y for x, y in zip(h[k], h[j])]
        g[j] = [x + q * y for x, y in zip(g[j], g[k])]
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
            g[k - 1], g[k] = g[k], g[k - 1]
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
    if matmul(h, transpose(g)) != identity(n):
        raise InternalConsistencyError("LLL transform failed h·g^T = I")
    return tuple(map(tuple, b)), tuple(map(tuple, h)), tuple(map(tuple, g))


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
    LLL-reduced: `basis` = g·u^-1[:k] and `coords` = h·g^-1, with
    (g^-1)^T the third value of lll_reduce, so coords·basis = rows.
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
    basis, _, ginv_t = lll_reduce(inv[:k])
    coords = tuple(mat_vec(ginv_t, r[:k]) for r in a)
    if k and matmul(coords, basis) != rows:  # at rank 0 the rows are zero
        raise InternalConsistencyError("restricted coordinates do not give the rows")
    return basis, coords, lll_reduce(transpose(u)[k:])[0]
