"""Cone construction, support hyperplanes, triangulation.

Working convention: a cone lives in *restricted coordinates*, i.e. a
basis of the lattice E = Z^d ∩ span(generators).  The `lattice_basis`
rows map restricted vectors back to the ambient space (x_ambient =
x_restricted · lattice_basis); `linalg.sublattice` returns them
LLL-reduced, so restricted entries stay small.  Full-dimensional cones
keep the identity basis so that restricted and ambient coordinates
coincide.

Simplicial cones are built by fraction-free pivots:
make_simplicial_cone pivots the generators into the unit basis
(linalg.basis_forms), and exchange takes the forms of simplices that
each differ from a known one in one generator by one linalg.pivot on
their stack, for the last generator of a triangulation's cells as for
the pieces of a stellar cut.  Both give the same forms, checked by
linalg.check_forms: generators, det and facet forms, all that
subdivision and evaluation read.  Many simplices travel as one
Simplices stack of arrays, from their elimination to their sweep;
simplicial_cones turns a stack into SimplicialCone tuples where one
simplex is read on its own.  A triangulation is a tuple of sorted
index tuples into its vectors; build_simplices builds its stack in
that order, a lone cell from scratch and two or more by one stacked
elimination, r - 1 pivots from the unit basis and one exchange.
`Cone.triangulation` is the
pulling triangulation from the generator on the most facets, read off
the facet masks of the cone's one double description; only a
non-simplicial facet without that apex takes a small double description
of its own.  Overcones keep the placing their double description returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg as la
from .errors import (DimensionError, GradingNotPositiveError, NotPointedError,
                     SingularMatrixError)
from .linalg import IntMat, IntVec


@dataclass(frozen=True)
class ConeInput:
    """Raw problem data: generators and/or homogeneous constraints."""

    ambient_dim: int
    generators: IntMat | None = None
    inequalities: IntMat | None = None
    equations: IntMat | None = None
    grading: IntVec | None = None

    def __post_init__(self):
        d = self.ambient_dim
        if d < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        if self.generators is None and self.inequalities is None:
            raise DimensionError("need generators or inequalities")
        for name in ("generators", "inequalities", "equations"):
            block = getattr(self, name)
            if block is not None:
                object.__setattr__(self, name, la.as_mat(block))
                if any(len(r) != d for r in getattr(self, name)):
                    raise DimensionError(f"{name} rows must have {d} entries")
        if self.grading is not None:
            object.__setattr__(self, "grading", la.as_vec(self.grading))
            if len(self.grading) != d:
                raise DimensionError(f"grading must have {d} entries")


@dataclass(frozen=True)
class Cone:
    """A pointed rational cone in restricted coordinates."""

    ambient_dim: int
    rank: int
    generators: IntMat      # primitive extreme rays, input order
    triangulation: tuple    # pulling triangulation, sorted index tuples into generators
    support_forms: IntMat   # irredundant primitive forms, sorted
    lattice_basis: IntMat   # rows form a basis of E = Z^d ∩ span
    grading: IntVec | None = None

    def to_ambient(self, v: IntVec) -> IntVec:
        if self.rank == self.ambient_dim:  # the basis is the identity
            return v
        if self.rank == 0:
            return (0,) * self.ambient_dim
        return la.vec_mat(v, self.lattice_basis)


@dataclass(frozen=True)
class SimplicialCone:
    """Linearly independent generators, their det and facet forms.

    facet_forms[i] is the (non-primitive) inner normal of the facet
    opposite gens[i], scaled so facet_forms[i]·gens[i] = det.  The i-th
    q-coordinate of a point x is (facet_forms[i]·x) / det.  Which facets
    a half-open simplex excludes depends on the anchor of the enclosing
    triangulation, so simplex.series_contribution takes it as an argument.
    """

    gens: IntMat
    det: int
    facet_forms: IntMat

    @property
    def dim(self) -> int:
        return len(self.gens)

    @property
    def height_normal(self) -> IntVec:
        """Primitive normal of the generators' affine hull: the facet forms
        sum to a form that takes the value det on every generator."""
        return la.primitive(tuple(map(sum, zip(*self.facet_forms))))

    @property
    def gen_height(self) -> int:
        """Common value of the height normal on every generator."""
        return la.dot(self.height_normal, self.gens[0])

    def q_numerators(self, x: IntVec) -> IntVec:
        """det times the barycentric generator coordinates of x."""
        return tuple(la.dot(f, x) for f in self.facet_forms)


@dataclass(frozen=True)
class Simplices:
    """A stack of k simplicial cones of rank r as integer arrays (int64
    or object): generators gens (k, r, r), facet forms (k, r, r) and
    dets (k), the fields of SimplicialCone.  Indexing takes a sub-stack."""

    gens: np.ndarray
    forms: np.ndarray
    det: np.ndarray

    def __len__(self) -> int:
        return len(self.det)

    def __getitem__(self, keep) -> Simplices:
        return Simplices(self.gens[keep], self.forms[keep], self.det[keep])


def stacked(simplices, r: int) -> Simplices:
    """The SimplicialCones of rank r as one stack, empty or not."""
    k = len(simplices)
    return Simplices(la.stack([s.gens for s in simplices]).reshape(k, r, r),
                     la.stack([s.facet_forms for s in simplices]).reshape(k, r, r),
                     la.stack([s.det for s in simplices]).reshape(k))


def simplicial_cones(stack: Simplices) -> tuple[SimplicialCone, ...]:
    """The simplices of a stack, each as a SimplicialCone of Python ints."""
    return tuple(SimplicialCone(tuple(map(tuple, g)), d, tuple(map(tuple, f)))
                 for g, d, f in zip(stack.gens.tolist(), stack.det.tolist(),
                                    stack.forms.tolist()))


def make_simplicial_cone(gens) -> SimplicialCone:
    """The simplicial cone over `gens` by one linalg.basis_forms pass: dependent
    generators raise SingularMatrixError, a non-square matrix DimensionError."""
    gens = la.as_mat(gens)
    kept, forms, det = la.basis_forms(gens, len(gens))
    if len(kept) < len(gens):
        raise SingularMatrixError("the generators are linearly dependent")
    return SimplicialCone(gens, det, forms)


def exchange(forms: np.ndarray, det: np.ndarray, u: np.ndarray, i: list,
             gens: np.ndarray) -> Simplices:
    """The stack of simplices over the generator stack gens (k, r, r), by
    one stacked fraction-free pivot.

    Simplex k is a known simplex S_k, of det det[k] and facet forms
    forms[k], with generator i[k] exchanged for the point x_k =
    gens[k, i[k]], and u[k] = F·x_k; i is a list of ints.  linalg.pivot
    takes the new dets and forms from those of S_k for r² products
    each, where make_simplicial_cone pivots r times from the unit basis;
    both give the same forms, since the inverse is unique.  F'·g' =
    det'·I must hold for every simplex of the stack.
    """
    forms, det = la.pivot(forms, det, u, i)
    la.check_forms(forms, gens, det, "exchanged facet forms failed F'·g' = det'·I")
    return Simplices(gens, forms, det)


def build_simplices(vectors, cells) -> Simplices:
    """The stack of the simplices over the cells, sorted index tuples into
    vectors, in the order of cells.

    A lone cell is built by make_simplicial_cone, a stack of one: a numpy
    elimination of one cell costs about three times its Python pivots.
    Two or more are eliminated together from the unit forms and det 1 by
    basis_forms' rule: step t pivots generator t of every cell into the
    first position still held by a unit vector where u = F·g_t is
    nonzero, by one linalg.pivot on the stack.  The rows are then put in
    generator order, the last free position last, and one exchange
    brings the last generator in and checks every simplex.
    """
    if len(cells) < 2:
        r = len(vectors[0]) if len(vectors) else 0
        return stacked([make_simplicial_cone([vectors[g] for g in idx]) for idx in cells], r)
    gens = la.stack(vectors)[np.array(cells)]
    k, r = len(cells), len(cells[0])
    rows = np.arange(k)
    forms, det = np.tile(np.eye(r, dtype=np.int64), (k, 1, 1)), np.ones(k, dtype=np.int64)
    free, at = np.ones((k, r), dtype=bool), []
    for t in range(r - 1):
        u = la.products(forms, gens[:, t, :, None])[:, :, 0]
        ok = free & (u != 0)
        if not ok.any(axis=1).all():
            raise SingularMatrixError("the vectors of a cell are linearly dependent")
        at.append(ok.argmax(axis=1))
        forms, det = la.pivot(forms, det, u, at[-1])
        free[rows, at[-1]] = False
    forms = forms[rows[:, None], np.stack(at + [free.argmax(axis=1)], axis=1)]
    u = la.products(forms, gens[:, r - 1, :, None])[:, :, 0]
    return exchange(forms, det, u, [r - 1] * k, gens)


def dual_description(vectors):
    """Extreme rays of {y : y·v >= 0 for all v}, by incremental insertion.

    Returns (rays, masks, placing).  The vectors must span the space,
    which makes the dual cone pointed; otherwise NotPointedError.
    Inserting one vector at a time performs the Fourier-Motzkin step of
    the double-description method.
    A pair of rays p, q on opposite sides of the new hyperplane yields a
    new ray iff it is adjacent: no third ray vanishes on every inserted
    vector that both vanish on (the combinatorial test of Fukuda-Prodon
    1996).  Before that scan over all rays, a pair sharing fewer than
    s - 2 zeros is skipped: the smallest face holding p and q has
    dimension s - rank(common zeros), at least 3 then, and a pointed cone
    of dimension 3 or more has a third extreme ray, which the scan would
    find.

    Bit i of masks[k] is set iff rays[k]·vectors[i] == 0: every vector
    updates the masks, and a new ray a·p + b·q (a, b > 0) vanishes on an
    earlier vector iff p and q do.  placing is the placing triangulation
    of cone(vectors), as sorted index tuples, kept as bitsets while it
    grows: one linalg.basis_forms picks the first simplex and gives its
    rays, and each vector adds a simplex over every facet of a simplex
    on a facet hyperplane that it sees.  Each new simplex arises once:
    the boundary facet it extends lies in one simplex.
    """
    vectors = la.as_mat(vectors)
    n = len(vectors)
    s = len(vectors[0]) if n else 0
    init, forms, _ = la.basis_forms(vectors, s)
    if len(init) < s:
        raise NotPointedError("vectors do not span the working space")
    # facet form j vanishes on every basis vector but the j-th
    rays = [la.primitive(f) for f in forms]
    full = sum(1 << gi for gi in init)
    masks = [full & ~(1 << gi) for gi in init]

    simplices = [full]
    init_set = set(init)

    for i in range(n):
        if i in init_set:
            continue
        v = vectors[i]
        vals = [la.dot(r, v) for r in rays]
        pos = [k for k, x in enumerate(vals) if x > 0]
        neg = [k for k, x in enumerate(vals) if x < 0]

        placed = simplices[:]
        for q in neg:
            zq = masks[q]
            simplices += [b & zq | 1 << i for b in placed if (b & zq).bit_count() == s - 1]

        new_rays = []
        new_masks = []
        for p in pos:
            zp = masks[p]
            for q in neg:
                zc = zp & masks[q]
                if zc.bit_count() < s - 2:
                    continue
                for t, zt in enumerate(masks):
                    if zc & ~zt == 0 and t != p and t != q:
                        break
                else:
                    combo = tuple(vals[p] * rq - vals[q] * rp
                                  for rp, rq in zip(rays[p], rays[q]))
                    new_rays.append(la.primitive(combo))
                    new_masks.append(zc | 1 << i)
        keep = [k for k, x in enumerate(vals) if x >= 0]
        rays = [rays[k] for k in keep] + new_rays
        masks = [masks[k] | (1 << i if vals[k] == 0 else 0) for k in keep] + new_masks

    placing = tuple(tuple(j for j in range(n) if b >> j & 1) for b in simplices)
    return tuple(rays), tuple(masks), placing


def ambient_support_forms(cone: Cone) -> IntMat:
    """Support forms lifted back to ambient coordinates (canonical lift).

    The lift of a form y is the ambient form in span(B) that agrees with
    y on the basis rows, (G^-1·y)·B; the Gram matrix G is symmetric and
    positive definite, so make_simplicial_cone(G) has the facet forms
    adj(G) = det(G)·G^-1, which give the same primitive lifts.
    """
    if cone.rank == cone.ambient_dim:
        return cone.support_forms
    b = cone.lattice_basis
    adj = make_simplicial_cone(la.matmul(b, la.transpose(b))).facet_forms
    return tuple(sorted(la.primitive(la.vec_mat(la.mat_vec(adj, form), b))
                        for form in cone.support_forms))


def _rays_from_constraints(ci: ConeInput) -> IntMat:
    """Extreme rays (ambient, primitive) of the constraint-defined cone."""
    d = ci.ambient_dim
    ineqs = list(ci.inequalities or ())
    b = la.identity(d)
    if ci.generators is not None:
        # intersecting with a generator cone: its support forms join the
        # inequalities, and the equations are solved inside its lattice
        # (x = y·B), where e·x = 0 reads (B·e)·y = 0.  Any basis of the
        # solution lattice gives the same rays in the same order, because
        # the double description is equivariant under a unimodular change
        # of basis.
        gen_cone = build_cone(ConeInput(ambient_dim=d, generators=ci.generators))
        ineqs.extend(ambient_support_forms(gen_cone))
        b = gen_cone.lattice_basis
    eqs = tuple(la.mat_vec(b, e) for e in ci.equations or ())
    kbasis = la.matmul(la.sublattice(eqs, len(b))[2], b)
    s = len(kbasis)
    if s == 0:
        return ()
    ineq_r = tuple(tuple(la.dot(k, lam) for k in kbasis) for lam in ineqs)
    ineq_r = tuple(row for row in ineq_r if any(row))
    if not ineq_r:  # nonzero rows that span less raise it in dual_description
        raise NotPointedError("constraints admit a nonzero linear subspace")
    rays_r, _, _ = dual_description(ineq_r)
    return tuple(la.vec_mat(r, kbasis) for r in rays_r)


def pulling_triangulation(generators: IntMat, masks) -> tuple:
    """The pulling triangulation of cone(generators), as sorted index tuples.

    Bit j of masks[k] is set iff generators[j] lies on facet k.  The
    apex is the generator on the most facets (the lowest index on a tie);
    every facet without it is the base of one pyramid, which is the
    simplex apex + facet when the facet has rank - 1 generators, and the
    placing of [apex] + the facet's generators otherwise, whose every
    simplex holds the apex, the first vector of its basis.
    """
    r, n = len(generators[0]), len(generators)
    on = [sum(m >> j & 1 for m in masks) for j in range(n)]
    apex = on.index(max(on))
    cells = []
    for m in masks:
        if m >> apex & 1:
            continue
        pyramid = [apex] + [j for j in range(n) if m >> j & 1]
        if len(pyramid) == r:
            cells.append(tuple(sorted(pyramid)))
        else:
            _, _, placing = dual_description([generators[j] for j in pyramid])
            cells.extend(tuple(sorted(pyramid[t] for t in idx)) for idx in placing)
    return tuple(sorted(cells))  # the order of the facets depends on redundant input


def build_cone(ci: ConeInput) -> Cone:
    """Both descriptions and the triangulation of the cone, in restricted
    coordinates.

    One double description gives the forms and the facets through each
    generator (read off the masks).  A primitive generator p spans an
    extreme ray iff no generator off the ray of p lies on every facet
    through p: those facets cut out the smallest face holding p, which
    the generators in it span.  The generators keep their input order,
    primitive and without repeats; the facet masks, remapped onto them,
    give the pulling triangulation.

    Raises NotPointedError when the input contains a line: the smallest
    face, the lineality space, is then nonzero and spanned by the
    generators in it, which lie on every facet.  An input with no nonzero
    generators yields the trivial (rank zero) cone.
    """
    d = ci.ambient_dim
    if ci.inequalities is not None or ci.equations is not None:
        gens_amb = _rays_from_constraints(ci)
    else:
        gens_amb = ci.generators
    gens_amb = tuple(g for g in gens_amb if any(g))
    if not gens_amb:
        return Cone(ambient_dim=d, rank=0, generators=(), triangulation=(),
                    support_forms=(), lattice_basis=(),
                    grading=None if ci.grading is None else ())

    r = len(la.basis_forms(gens_amb, d)[0])
    if r == d:
        basis, gens_r = la.identity(d), gens_amb
    else:
        basis, gens_r, _ = la.sublattice(gens_amb, d)

    forms, masks, _ = dual_description(gens_r)
    prims = [la.primitive(g) for g in gens_r]
    zeros = [sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
             for i in range(len(prims))]
    if (1 << len(masks)) - 1 in zeros:  # a generator on every facet
        raise NotPointedError("cone contains a nonzero linear subspace")
    generators, kept = [], []
    for i, (p, z) in enumerate(zip(prims, zeros)):
        if p not in generators and all(z & ~zk or pk == p
                                       for pk, zk in zip(prims, zeros)):
            generators.append(p)
            kept.append(i)
    masks = [sum(1 << j for j, i in enumerate(kept) if m >> i & 1) for m in masks]

    cone = Cone(ambient_dim=d, rank=r, generators=tuple(generators),
                triangulation=pulling_triangulation(generators, masks),
                support_forms=tuple(sorted(forms)), lattice_basis=basis,
                grading=None)
    if ci.grading is not None:
        cone = replace(cone, grading=normalize_grading(cone, ci.grading))
    return cone


def normalize_grading(cone: Cone, deg: IntVec) -> IntVec:
    """Restrict an ambient grading to E and rescale so degree 1 occurs.

    Since the cone is full-dimensional inside E, the group generated by
    its lattice points is all of E, so the rescaling divisor is the gcd
    of the restricted coefficients.
    """
    deg = la.as_vec(deg)
    if len(deg) != cone.ambient_dim:
        raise DimensionError("grading has wrong arity")
    if cone.rank == 0:
        return ()
    deg_r = tuple(la.dot(b, deg) for b in cone.lattice_basis)
    for g in cone.generators:
        if la.dot(g, deg_r) <= 0:
            raise GradingNotPositiveError(
                f"generator {cone.to_ambient(g)} has nonpositive degree")
    return la.primitive(deg_r)


def triangulate(cone: Cone) -> tuple[SimplicialCone, ...]:
    """The simplices of the pulling triangulation that build_cone recorded,
    built by build_simplices from its index tuples, with no double
    description."""
    return simplicial_cones(build_simplices(cone.generators, cone.triangulation))
