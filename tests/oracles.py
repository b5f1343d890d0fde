"""Brute-force oracles used to check the library.

Everything here is deliberately naive (expansion by minors, grid
enumeration, reduction by elimination) and shares no code with the
package internals beyond tuples of ints.  The exceptions are
stellar_tree, which checks recursive_subdivide's loop and so reuses the
package's single stellar step, fundamental_points and is_pointed,
which only the tests need: the first collects the package's residue
sweep, the second asks build_cone, unique_sort_reduction, the
reference for reduce_to_hilbert_basis, which converts rows and support
values as the package does, and sweep_all_approx_candidates, the
package's overcone pass with every overcone simplex of det > 1 swept.  fraction_free_independent_rows and
staircase_face_vertices are earlier package versions of the
greedy basis of linalg.basis_forms and of minimal_cube_face_vertices, and
placing_triangulation the triangulation build_cone recorded before it
pulled one from an apex, and rank_pointed its rank test for a line,
kept as references, as is hermite_residue_axes, the residue axes of
every simplex from the Hermite form, cyclic ones included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import floor, prod

import numpy as np

from conekit.approx import approximate_cone
from conekit.cone import ConeInput, build_cone, build_simplices, dual_description
from conekit.errors import InternalConsistencyError, NotPointedError
from conekit.linalg import (as_vec, hermite_mod, products, stack, sublattice, transpose,
                            vec_mat)
from conekit.simplex import (POINT_BUDGET, hb_candidates, points_below,
                             points_from_block, residue_blocks)
from conekit.subdivide import stellar_subdivide


def minor_det(m) -> int:
    """Determinant by recursive expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j, x in enumerate(m[0]):
        if x == 0:
            continue
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * x * minor_det(sub)
    return total


def frac_inverse(m):
    """Gauss-Jordan inverse over Q; raises on singular input."""
    n = len(m)
    w = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        piv = next(i for i in range(k, n) if w[i][k])
        w[k], w[piv] = w[piv], w[k]
        pk = w[k][k]
        w[k] = [x / pk for x in w[k]]
        for i in range(n):
            if i != k and w[i][k]:
                f = w[i][k]
                w[i] = [x - f * y for x, y in zip(w[i], w[k])]
    return [row[n:] for row in w]


def gen_box(gens):
    """Coordinate ranges of the half-open parallelepiped spanned by gens."""
    d = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(d)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(d)]
    return lo, hi


def q_coords(gens, x):
    """Rational coordinates q with q·gens = x (square independent gens)."""
    inv = frac_inverse([list(g) for g in gens])
    d = len(x)
    return tuple(sum(Fraction(x[i]) * inv[i][j] for i in range(d)) for j in range(d))


def brute_fundamental_points(gens):
    """All lattice points with q-coordinates in [0,1), by grid scan.

    Uses the integer matrix det·inverse so the box walk stays in exact
    integer arithmetic.
    """
    lo, hi = gen_box(gens)
    inv = frac_inverse([list(g) for g in gens])
    d = len(gens)
    det = minor_det([list(g) for g in gens])
    adj = [[inv[i][j] * det for j in range(d)] for i in range(d)]
    assert all(x.denominator == 1 for row in adj for x in row)
    adj = [[int(x) for x in row] for row in adj]
    if det < 0:
        det = -det
        adj = [[-x for x in row] for row in adj]
    pts = []
    for x in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        u = [sum(x[i] * adj[i][j] for i in range(d)) for j in range(d)]
        if all(0 <= ui < det for ui in u):
            pts.append(x)
    return sorted(pts)


def minors_gcd(rows, m) -> int:
    """gcd of all m×m minors of the rows (1 for m = 0)."""
    n = len(rows[0]) if rows else 0
    g = 0
    for sub in combinations(rows, m):
        for cols in combinations(range(n), m):
            g = _gcd(g, minor_det([[r[j] for j in cols] for r in sub]))
    return g


def lattice_index(rows, det) -> int:
    """Index in Z^n of the lattice spanned by the rows and det·Z^n.

    It is the gcd of the n×n minors of the rows stacked on det·I; such a
    minor with m of the rows is ±det^(n-m) times an m×m minor of them,
    so the index is the gcd over m of det^(n-m)·D_m, with D_m the gcd
    of the m×m minors of the rows.
    """
    n = len(rows[0])
    g = 0
    for m in range(min(len(rows), n) + 1):
        g = _gcd(g, det ** (n - m) * minors_gcd(rows, m))
    return g


def gram_restrict(basis, vectors):
    """Coordinates x of each vector v in an independent lattice basis B,
    by the Gram solve G·x = B·v with G = B·Bᵀ in Fractions; asserts that
    they are integral."""
    gram = [[dotv(bi, bj) for bj in basis] for bi in basis]
    ginv = frac_inverse(gram)
    out = []
    for v in vectors:
        bv = [dotv(b, v) for b in basis]
        x = [sum(Fraction(c) * row[j] for c, row in zip(bv, ginv))
             for j in range(len(basis))]
        assert all(c.denominator == 1 for c in x)
        out.append(tuple(int(c) for c in x))
    return tuple(out)


def gram_schmidt(rows):
    """(μ, squared lengths) of the Gram-Schmidt orthogonalisation of
    independent rows, in Fractions: b*_k = b_k - Σ_{j<k} μ_kj·b*_j."""
    ortho, mu, norms = [], [], []
    for b in rows:
        w = [Fraction(x) for x in b]
        coeffs = []
        for o, n in zip(ortho, norms):
            c = sum(Fraction(x) * y for x, y in zip(b, o)) / n
            w = [x - c * y for x, y in zip(w, o)]
            coeffs.append(c)
        ortho.append(w)
        mu.append(coeffs)
        norms.append(sum(x * x for x in w))
    return mu, norms


def residue_classes(gens):
    """q-numerator vectors of the fundamental domain, by group closure.

    The q numerators of lattice points are the integer combinations of
    the rows of det·gens^-1 (an explicit Fraction inverse); modulo det
    they form a group of order det, built here by breadth-first closure
    from 0.  Sorted, with entries in [0, det).
    """
    n = len(gens)
    det = abs(minor_det([list(g) for g in gens]))
    inv = frac_inverse([list(g) for g in gens])
    steps = [[x * det for x in row] for row in inv]
    assert all(x.denominator == 1 for row in steps for x in row)
    steps = [tuple(int(x) % det for x in row) for row in steps]
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for st in steps:
                w = tuple((a + b) % det for a, b in zip(v, st))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == det
    return sorted(seen)


def hermite_residue_axes(s):
    """simplex._residue_axes by the Hermite form alone: row i of the
    Hermite form of facet_forms·Z^r modulo det, with pivot t_i < det, is
    an axis of range det/t_i, checked as the package checked it."""
    det = s.det
    h = hermite_mod(transpose(s.facet_forms), det)
    axes = [(det // row[i], row, i) for i, row in enumerate(h) if row[i] < det]
    if prod(m for m, _, _ in axes) != det:
        raise InternalConsistencyError("residue ranges do not multiply to det")
    if any(any(row[:i]) or row[i] * m != det or not 0 <= min(row) <= max(row) < det
           for m, row, i in axes):
        raise InternalConsistencyError("residue axis is not triangular modulo det")
    if any(x % det for _, t, _ in axes for x in vec_mat(t, s.gens)):
        raise InternalConsistencyError("residue axis is not a lattice point")
    return [(m, row) for m, row, _ in axes]


def cross_normal(rows):
    """Generalized cross product: integer normal of d-1 independent rows."""
    d = len(rows[0])
    assert len(rows) == d - 1
    out = []
    for j in range(d):
        sub = [[row[k] for k in range(d) if k != j] for row in rows]
        out.append((-1) ** j * minor_det(sub))
    return tuple(out)


def brute_support_forms(gens):
    """All primitive facet-candidate forms of a full-dimensional cone.

    Every (d-1)-subset of generators contributes its normal if one sign
    of it is nonnegative on all generators.  The returned set may contain
    redundant valid inequalities; the intersection of their halfspaces is
    still exactly the cone, which is all the membership oracle needs.
    """
    d = len(gens[0])
    forms = set()
    for sub in combinations(gens, d - 1):
        n = cross_normal(list(sub))
        if all(x == 0 for x in n):
            continue
        g = 0
        for x in n:
            g = _gcd(g, x)
        n = tuple(x // g for x in n)
        if all(dotv(n, g2) >= 0 for g2 in gens):
            forms.add(n)
        neg = tuple(-x for x in n)
        if all(dotv(neg, g2) >= 0 for g2 in gens):
            forms.add(neg)
    return sorted(forms)


def frac_rank(rows) -> int:
    """Rank over Q by Gaussian elimination in Fractions."""
    w = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(w[0]) if w else 0):
        piv = next((i for i in range(rank, len(w)) if w[i][c]), None)
        if piv is None:
            continue
        w[rank], w[piv] = w[piv], w[rank]
        for i in range(rank + 1, len(w)):
            if w[i][c]:
                f = w[i][c] / w[rank][c]
                w[i] = [x - f * y for x, y in zip(w[i], w[rank])]
        rank += 1
    return rank


def brute_facets(gens):
    """The irredundant forms among `brute_support_forms`: a valid form is a
    facet iff the generators it vanishes on have rank d - 1."""
    d = len(gens[0])
    return [f for f in brute_support_forms(gens)
            if frac_rank([g for g in gens if dotv(f, g) == 0]) == d - 1]


def brute_extreme_rays(gens):
    """Primitive extreme generators of a full-dimensional pointed cone, in
    input order and without repeats.

    The valid forms of `brute_support_forms` that vanish on a generator
    include every facet through it, and together they cut out the
    smallest face holding it; that face is a ray iff they have rank d - 1.
    In dimension 1 every generator spans the one ray.
    """
    d = len(gens[0])
    forms = brute_support_forms(gens) if d > 1 else []
    out = []
    for g in gens:
        c = 0
        for x in g:
            c = _gcd(c, x)
        p = tuple(x // c for x in g)
        on = [f for f in forms if dotv(f, g) == 0]
        if p not in out and frac_rank(on) == d - 1:
            out.append(p)
    return out


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def dotv(u, v):
    return sum(a * b for a, b in zip(u, v))


def in_cone(forms, x):
    return all(dotv(f, x) >= 0 for f in forms)


def _polytope_box(ineqs, dim):
    """Integer bounding box of {x : a·x >= b for all (a, b)} by vertex
    enumeration; the polytope must be bounded.  Exact rational solves."""
    verts = []
    for rows in combinations(ineqs, dim):
        mat = [list(a) for a, _ in rows]
        if minor_det(mat) == 0:
            continue
        inv = frac_inverse(mat)
        rhs = [Fraction(b) for _, b in rows]
        v = [sum(inv[j][i] * rhs[i] for i in range(dim)) for j in range(dim)]
        if all(sum(Fraction(a[j]) * v[j] for j in range(dim)) >= b
               for a, b in ineqs):
            verts.append(v)
    assert verts, "polytope is empty"
    lo, hi = [], []
    for j in range(dim):
        lo.append(min(v[j] for v in verts).__floor__())
        hi.append(-((-max(v[j] for v in verts)).__floor__()))
    return lo, hi


def enumerate_polytope_points(ineqs, dim):
    """All lattice points of a bounded polytope {a·x >= b}.

    Outer coordinates sweep the bounding box; the last coordinate is
    resolved as an exact interval per fixed prefix.
    """
    lo, hi = _polytope_box(ineqs, dim)
    pts = []
    for prefix in product(*(range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1]))):
        last_lo, last_hi = Fraction(lo[-1]), Fraction(hi[-1])
        ok = True
        for a, b in ineqs:
            c = a[-1]
            rest = sum(x * y for x, y in zip(a[:-1], prefix))
            if c == 0:
                if rest < b:
                    ok = False
                    break
            elif c > 0:
                last_lo = max(last_lo, Fraction(b - rest, c))
            else:
                last_hi = min(last_hi, Fraction(b - rest, c))
        if not ok:
            continue
        start = last_lo.__ceil__()
        stop = last_hi.__floor__()
        for z in range(start, stop + 1):
            pts.append(prefix + (z,))
    return pts


def brute_degree_counts(gens, grading, dmax):
    """Lattice point counts of the cone per degree 0..dmax.

    Assumes the cone is full-dimensional and the grading is positive on
    all generators.
    """
    forms = brute_support_forms(gens)
    d = len(gens[0])
    ineqs = [(f, 0) for f in forms]
    ineqs.append((tuple(-x for x in grading), -dmax))
    counts = [0] * (dmax + 1)
    for x in enumerate_polytope_points(ineqs, d):
        deg = dotv(grading, x)
        assert 0 <= deg <= dmax
        counts[deg] += 1
    return counts


def sweep_polytope_points(ineqs, dim):
    """All lattice points of a bounded polytope {a·x >= b}, as an array.

    The same sweep as ``enumerate_polytope_points``, vectorised: every
    prefix of the ``_polytope_box`` grid is resolved at once, the last
    coordinate by exact integer ceil/floor division.  Rows come in the
    same lexicographic order.  The dtype is int64 when twice
    max|a|·max|box coordinate|·dim + max|b| fits, so that every a·x - b
    on the box, and its double, cannot wrap; otherwise exact Python
    integers (``object``).
    """
    lo, hi = _polytope_box(ineqs, dim)
    bound = (max(abs(x) for a, _ in ineqs for x in a)
             * max(abs(x) for x in lo + hi) * dim
             + max(abs(b) for _, b in ineqs))
    dtype = np.int64 if 2 * bound < 2**63 else object
    axes = [np.array(range(l, h + 1), dtype=dtype)
            for l, h in zip(lo[:-1], hi[:-1])]
    if axes:
        grid = np.meshgrid(*axes, indexing="ij")
        prefix = np.stack([g.reshape(-1) for g in grid], axis=1)
    else:
        prefix = np.zeros((1, 0), dtype=dtype)
    a = np.array([r for r, _ in ineqs], dtype=dtype)
    b = np.array([x for _, x in ineqs], dtype=dtype)
    excess = prefix @ a[:, :-1].T - b  # a·prefix - b, one column per row
    last_lo = np.full(len(prefix), lo[-1], dtype=dtype)
    last_hi = np.full(len(prefix), hi[-1], dtype=dtype)
    ok = np.ones(len(prefix), dtype=bool)
    for k, c in enumerate(a[:, -1]):
        if c > 0:    # z >= ceil(-excess / c)
            last_lo = np.maximum(last_lo, -(excess[:, k] // c))
        elif c < 0:  # z <= floor(-excess / c) = floor(excess / -c)
            last_hi = np.minimum(last_hi, excess[:, k] // -c)
        else:
            ok &= excess[:, k] >= 0
    counts = np.where(ok, np.maximum(last_hi - last_lo + 1, 0), 0)
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    z = np.repeat(last_lo, counts) + (np.arange(total) - starts)
    return np.column_stack([np.repeat(prefix, counts, axis=0), z])


def brute_hilbert_basis(gens):
    """Hilbert basis by bounded enumeration plus elimination.

    Let aux(x) be the sum of the support-form values of x; it is positive
    on every nonzero point of the (pointed) cone.  Every Hilbert-basis
    element is a generator or lies in the fundamental domain of some
    triangulation simplex, so its aux degree is at most d times the
    largest aux(g) over the generators.  All nonzero cone lattice points
    up to that degree are swept and sorted by (aux, point).  Then,
    repeatedly, the smallest surviving point q is accepted, and every
    surviving p with aux(p) >= 2·aux(q) and p - q in the cone is dropped.

    This is exact.  A dropped p is p = q + (p - q) with both summands
    nonzero cone points, so it is reducible.  A reducible p is a sum of
    k >= 2 basis elements; the one with the smallest aux, q, has
    aux(q) <= aux(p)/k <= aux(p)/2 and p - q (the sum of the others) in
    the cone.  By induction on the sort order q is accepted before p is
    reached and then drops p, so no reducible point is ever accepted,
    and no irreducible point can be dropped.

    The form values and aux degrees of swept points are nonnegative and
    within the sweep's own int64 bound, so the arithmetic stays exact in
    the sweep's dtype (doubling an aux degree included).
    """
    forms = brute_support_forms(gens)
    d = len(gens[0])

    def aux(x):
        return sum(dotv(f, x) for f in forms)

    dmax = d * max(aux(g) for g in gens)
    ineqs = [(f, 0) for f in forms]
    aux_row = tuple(-sum(f[j] for f in forms) for j in range(d))
    ineqs.append((aux_row, -dmax))
    pts = sweep_polytope_points(ineqs, d)
    pts = pts[np.any(pts != 0, axis=1)]
    vals = pts @ np.array(forms, dtype=pts.dtype).T
    degs = vals.sum(axis=1)
    order = np.lexsort(tuple(pts[:, j] for j in reversed(range(d))) + (degs,))
    pts, vals, degs = pts[order], vals[order], degs[order]
    alive = np.ones(len(pts), dtype=bool)
    basis = []
    i = 0
    while i < len(pts):
        basis.append(tuple(int(x) for x in pts[i]))
        start = int(np.searchsorted(degs, 2 * degs[i], side="left"))
        tail = alive[start:]  # a view: clearing it clears alive
        tail &= ~np.all(vals[start:] >= vals[i], axis=1)
        nxt = np.flatnonzero(alive[i + 1:])
        i = i + 1 + int(nxt[0]) if len(nxt) else len(pts)
    return sorted(basis)


def oracle_cost_estimate(gens):
    """Size of the sweep the Hilbert-basis oracle would do (for sampling)."""
    forms = brute_support_forms(gens)
    d = len(gens[0])

    def aux(x):
        return sum(dotv(f, x) for f in forms)

    dmax = d * max(aux(g) for g in gens)
    ineqs = [(f, 0) for f in forms]
    aux_row = tuple(-sum(f[j] for f in forms) for j in range(d))
    ineqs.append((aux_row, -dmax))
    lo, hi = _polytope_box(ineqs, d)
    size = 1
    for l, h in zip(lo[:-1], hi[:-1]):
        size *= h - l + 1
    return size


def _fixed_slab_dominated(vals, aux, red_vals, red_aux, slab):
    """Mask of rows x with a reducer y: vals(x) >= vals(y), aux(y) < aux(x),
    comparing the rows not yet dominated with as many reducers at a time
    as keep the (rows x reducers) temporary within slab entries."""
    dominated = np.zeros(len(vals), dtype=bool)
    todo = np.arange(len(vals))
    lo = 0
    while todo.size and lo < len(red_vals) and red_aux[lo] < aux[todo[-1]]:
        hi = lo + max(1, slab // todo.size)
        x = vals[todo]
        hit = red_aux[None, lo:hi] < aux[todo, None]
        for k in range(vals.shape[1]):
            hit &= x[:, k, None] >= red_vals[None, lo:hi, k]
        hit = hit.any(1)
        dominated[todo[hit]] = True
        todo = todo[~hit]
        lo = hi
    return dominated


def unique_sort_reduction(candidates, forms):
    """Minimal nonzero candidates in (aux, lex) order: the reduction as
    it was before narrow-first slabs.  Rows are deduplicated by a row
    sort (np.unique, or a sorted set of Python-int rows), ordered by a
    stable argsort on aux, and each block of 4,096 rows is tested
    against the earlier minimal rows and itself in slabs of 2^20
    booleans."""
    block, slab = 1 << 12, 1 << 20
    cands = candidates if isinstance(candidates, np.ndarray) else stack(list(candidates))
    if not len(cands):  # an empty list stacks to one axis
        return ()
    if cands.dtype == object:
        cands = np.array(sorted({tuple(int(x) for x in row)
                                 for row in cands if any(row)}), dtype=object)
    else:
        cands = np.unique(cands[np.any(cands != 0, axis=1)], axis=0)
    if cands.size == 0:
        return ()
    vals = products(cands, stack(forms).T)
    aux = vals.sum(axis=1)
    order = np.argsort(aux, kind="stable")
    cands, vals, aux = cands[order], vals[order], aux[order]
    kept = np.zeros(0, dtype=np.intp)
    for start in range(0, len(cands), block):
        idx = np.arange(start, min(len(cands), start + block))
        idx = idx[~_fixed_slab_dominated(vals[idx], aux[idx], vals[kept], aux[kept], slab)]
        idx = idx[~_fixed_slab_dominated(vals[idx], aux[idx], vals[idx], aux[idx], slab)]
        kept = np.concatenate([kept, idx])
    return tuple(tuple(int(x) for x in row) for row in cands[kept])


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def sweep_propagate(rows, lo, hi) -> bool:
    """Tighten the box [lo, hi] in place to cl <= coeffs·x <= cu for every
    row (coeffs, cl, cu), until no bound moves; False if a row fails."""
    changed = True
    while changed:
        changed = False
        for coeffs, cl, cu in rows:
            mn = mx = 0
            for c, l, h in zip(coeffs, lo, hi):
                if c > 0:
                    mn += c * l
                    mx += c * h
                elif c < 0:
                    mn += c * h
                    mx += c * l
            if mn > cu or mx < cl:
                return False
            for j, c in enumerate(coeffs):
                if c == 0:
                    continue
                if c > 0:
                    tmin, tmax = c * lo[j], c * hi[j]
                else:
                    tmin, tmax = c * hi[j], c * lo[j]
                up = cu - (mn - tmin)   # c*x_j <= up
                dn = cl - (mx - tmax)   # c*x_j >= dn
                if c > 0:
                    nh = up // c
                    nl = _ceil_div(dn, c)
                else:
                    nh = dn // c
                    nl = _ceil_div(up, c)
                if nh < hi[j]:
                    hi[j] = nh
                    changed = True
                if nl > lo[j]:
                    lo[j] = nl
                    changed = True
                if lo[j] > hi[j]:
                    return False
    return True


def brute_star_minimum(gens, normal, height):
    """Exact optimum of min{N·x : x in E \\ {0}, N·x < height} by grid scan."""
    best = None
    for x in brute_fundamental_points(gens):
        if not any(x):
            continue
        val = dotv(normal, x)
        if val < height and (best is None or (val, x) < best):
            best = (val, x)
    return best


def filter_approx_candidates(cands, facet_forms, normal, height):
    """Distinct nonzero candidates inside the simplex and strictly below
    generator height, in first-seen order (tuple by tuple)."""
    survivors = []
    seen = set()
    for x in cands:
        if x in seen:
            continue
        seen.add(x)
        if not any(x):
            continue
        if dotv(normal, x) >= height:
            continue
        if any(dotv(f, x) < 0 for f in facet_forms):
            continue
        survivors.append(x)
    return survivors


def stellar_tree(s, cfg, find_point):
    """Leaves of the one-point stellar loop, depth first: a simplex above
    cfg.volume_bound is cut at find_point(simplex), or kept when that is
    None.  No point is handed down to the pieces."""
    stack = [s]
    leaves = []
    while stack:
        cur = stack.pop()
        if cur.det <= cfg.volume_bound:
            leaves.append(cur)
            continue
        xhat = find_point(cur)
        if xhat is None:
            leaves.append(cur)
            continue
        stack.extend(reversed(stellar_subdivide(cur, xhat)))
    return tuple(leaves)


def fundamental_points(s):
    """All |det| points of the simplex's fundamental domain, one per row,
    in the package's residue-sweep order."""
    pts = np.vstack([points_from_block(s, v) for v in residue_blocks(s)])
    assert len(pts) == s.det, f"enumerated {len(pts)} points for det {s.det}"
    return pts


def is_pointed(gens) -> bool:
    """Whether the cone generated by gens contains no line."""
    try:
        build_cone(ConeInput(len(gens[0]) if gens else 0,
                             generators=tuple(map(tuple, gens))))
    except NotPointedError:
        return False
    return True


def rank_pointed(gens) -> bool:
    """Whether the cone generated by gens contains no line, by the test
    build_cone made before it read pointedness off the facet masks: the
    support forms of the cone, in the span of its generators, have full
    rank."""
    gens = [tuple(g) for g in gens if any(g)]
    if not gens:
        return True
    d, r = len(gens[0]), frac_rank(gens)
    gens_r = gens if r == d else sublattice(gens, d)[1]
    return frac_rank(dual_description(gens_r)[0]) == r


def generator_sum(gens):
    """The sum of the generators: the anchor at which the pipeline reads
    the half-open exclusions of a triangulation of their cone."""
    return tuple(map(sum, zip(*gens)))


def lex_negative(form, anchor) -> bool:
    """Whether the form is negative at anchor - sum(eps^j e_j) for an
    infinitesimal eps > 0.  Its value there is f·anchor - sum(eps^j f_j),
    so the sign is that of the first nonzero of (f·anchor, -f_0, -f_1, ...)."""
    key = (dotv(form, anchor), *(-c for c in form))
    return key < (0,) * len(key)


def excluded_facets(s, anchor) -> frozenset:
    """The facets that the simplex s, half-open at the anchor, excludes."""
    return frozenset(i for i, f in enumerate(s.facet_forms) if lex_negative(f, anchor))


def in_half_open(s, x, anchor) -> bool:
    """Whether x lies in the half-open simplex s: every facet form is
    nonnegative at x, and positive on the facets excluded at the anchor."""
    for f in s.facet_forms:
        v = dotv(f, x)
        if v < 0 or (v == 0 and lex_negative(f, anchor)):
            return False
    return True


def primitive(v):
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for x in v:
        g = _gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def fraction_free_independent_rows(rows, ncols: int) -> list[int]:
    """Indices of the greedy (first-come) maximal independent subset: a
    row is kept iff it does not reduce to zero, fraction-free, against
    the primitive rows kept so far (each zero on the earlier pivots)."""
    kept: list[tuple[int, tuple[int, ...]]] = []
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


def staircase_face_vertices(v):
    """Vertices of the minimal staircase-triangulation face containing v,
    from the barycentric weights of the staircase chain."""
    v = tuple(Fraction(x) for x in v)
    d = len(v)
    base = tuple(floor(x) for x in v)
    frac = [x - b for x, b in zip(v, base)]
    order = sorted(range(d), key=lambda i: (-frac[i], i))
    lambdas = [1 - (frac[order[0]] if d else 0)]
    for k in range(1, d):
        lambdas.append(frac[order[k - 1]] - frac[order[k]])
    if d:
        lambdas.append(frac[order[-1]])
    out = []
    w = list(base)
    if lambdas[0] > 0:
        out.append(tuple(w))
    for k in range(1, d + 1):
        w[order[k - 1]] += 1
        if lambdas[k] > 0:
            out.append(tuple(w))
    return tuple(out)


def placing_triangulation(gens):
    """The placing triangulation of cone(gens) along their order, as the
    sorted index tuples of dual_description: the triangulation that
    build_cone recorded before it pulled one from an apex."""
    return dual_description(gens)[2]


def sweep_all_approx_candidates(s, level=1):
    """approx_candidates with the fundamental domain of every overcone
    simplex of det > 1 swept, also of those a facet form separates from
    s; the same early return and POINT_BUDGET test."""
    over = approximate_cone(s, level)
    _, _, placing = dual_description(over)
    big = []
    for sub in build_simplices(over, placing):
        if sub.det >= max(2, s.det):
            return ()
        if sub.det > 1:
            big.append(sub)
    if sum(sub.det for sub in big) > POINT_BUDGET:
        return ()
    cands = np.vstack([stack(over)] + [hb_candidates(sub) for sub in big])
    return tuple(sorted({as_vec(row) for row in points_below(s, cands)}))
