"""Finite-group gradings: graded algebras, modules, homs, and the graded
run of the quotient-equivalence engine.

Degrees are group-element indices attached to basis coordinates.  All the
grading conditions are enforced at construction time, so any GradedAlgebra
or GradedModule in circulation is honestly graded.  Hom spaces decompose
by degree: a map has degree sigma when it sends the lambda component of
the source into the (lambda.sigma) component of the target; every (row,
column) coordinate of a hom matrix belongs to exactly one degree, so the
components are cut out by coordinate masks.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

from .algebra import Algebra
from .context import MoritaContext
from .equivalence import (
    Report,
    _keep_new_class,
    build_catalog,
    context_theories,
    trace_ideal_notes,
)
from .exactlin import Basis, Matrix, kernel_basis, unit_vector
from .modules import (
    DEFAULT_ISO_EXHAUST,
    DEFAULT_ISO_SAMPLES,
    DEFAULT_LATTICE_BUDGET,
    HomBasis,
    IsoResult,
    LeftModule,
    _search_invertible,
    hom_module,
    hom_space,
    quotient_module,
)
from .torsion import TorsionTheory, closedness_map, torsion_submodule


class FiniteGroup:
    """A group given by its multiplication table of element indices."""

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, table: Sequence[Sequence[int]]):
        n = len(table)
        tab = tuple(tuple(row) for row in table)
        for row in tab:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValueError("multiplication table is not square over element indices")
        identity = None
        for e in range(n):
            if all(tab[e][x] == x and tab[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverse = []
        for x in range(n):
            inv = [y for y in range(n) if tab[x][y] == identity]
            if len(inv) != 1:
                raise ValueError(f"element {x} has no unique inverse")
            inverse.append(inv[0])
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                        raise ValueError(f"table is not associative at ({a}, {b}, {c})")
        self.order = n
        self.table = tab
        self.identity = identity
        self.inverse = tuple(inverse)

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(((0,),))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order {self.order})"


def homogeneous_degree(vec, degrees, field) -> Optional[int]:
    """The single degree supporting the vector, or None if mixed/zero."""
    seen = None
    for i, x in enumerate(vec):
        if field.is_zero(x):
            continue
        if seen is None:
            seen = degrees[i]
        elif degrees[i] != seen:
            return None
    return seen


class GradedAlgebra:
    __slots__ = ("base", "group", "degrees")

    def __init__(self, base: Algebra, group: FiniteGroup, degrees: Sequence[int]):
        degs = tuple(degrees)
        if len(degs) != base.dim:
            raise ValueError("one degree per algebra basis vector is required")
        if any(not 0 <= d < group.order for d in degs):
            raise ValueError("degree index out of range")
        f = base.field
        for i, u in enumerate(base.unit):
            if not f.is_zero(u) and degs[i] != group.identity:
                raise ValueError("unit is not concentrated in the identity degree")
        for i in range(base.dim):
            for j in range(base.dim):
                want = group.mul(degs[i], degs[j])
                for k, c in enumerate(base.mul[i][j]):
                    if not f.is_zero(c) and degs[k] != want:
                        raise ValueError(
                            f"product of basis {i} and {j} has a component in the wrong degree")
        self.base = base
        self.group = group
        self.degrees = degs

    @classmethod
    def trivially_graded(cls, base: Algebra) -> "GradedAlgebra":
        return cls(base, FiniteGroup.trivial(), (0,) * base.dim)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedAlgebra) and self.base == other.base
                and self.group == other.group and self.degrees == other.degrees)

    def __hash__(self) -> int:
        return hash((self.base, self.group, self.degrees))

    def __repr__(self) -> str:
        return f"GradedAlgebra(dim {self.base.dim}, group order {self.group.order})"


class GradedModule:
    __slots__ = ("algebra", "base", "degrees")

    def __init__(self, algebra: GradedAlgebra, base: LeftModule, degrees: Sequence[int]):
        if base.algebra != algebra.base:
            raise ValueError("base module is over a different algebra")
        degs = tuple(degrees)
        if len(degs) != base.dim:
            raise ValueError("one degree per module basis vector is required")
        group = algebra.group
        if any(not 0 <= d < group.order for d in degs):
            raise ValueError("degree index out of range")
        f = base.algebra.field
        for i in range(algebra.base.dim):
            act = base.action[i]
            for j in range(base.dim):
                want = group.mul(algebra.degrees[i], degs[j])
                for k in range(base.dim):
                    if not f.is_zero(act.entries[k][j]) and degs[k] != want:
                        raise ValueError(
                            f"action of basis {i} on coordinate {j} leaves its degree")
        self.algebra = algebra
        self.base = base
        self.degrees = degs

    @property
    def dim(self) -> int:
        return self.base.dim

    def component_dims(self) -> tuple:
        counts = [0] * self.algebra.group.order
        for d in self.degrees:
            counts[d] += 1
        return tuple(counts)

    def __repr__(self) -> str:
        return f"GradedModule(dim {self.dim}, degrees {self.degrees})"


def suspension(gm: GradedModule, sigma: int) -> GradedModule:
    """Shift the grading: the new lambda component is the old one at
    lambda.sigma, so a vector of degree d moves to degree d.sigma^(-1)."""
    g = gm.algebra.group
    inv = g.inv(sigma)
    return GradedModule(gm.algebra, gm.base, tuple(g.mul(d, inv) for d in gm.degrees))


def _degree_of_hom_coord(group, src_degrees, tgt_degrees, r, c) -> int:
    # f(M_lambda) subset N_{lambda.sigma}: coordinate (r, c) carries
    # sigma = lambda^(-1) . mu with lambda = deg(c), mu = deg(r)
    return group.mul(group.inv(src_degrees[c]), tgt_degrees[r])


class GradedHom:
    """Degree decomposition of a hom space: one HomBasis per degree."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: GradedModule, target: GradedModule, components: Dict[int, HomBasis]):
        self.source = source
        self.target = target
        self.components = components

    @property
    def total_dim(self) -> int:
        return sum(h.dim for h in self.components.values())

    def component(self, sigma: int) -> HomBasis:
        return self.components[sigma]


def graded_hom(gm: GradedModule, gn: GradedModule) -> GradedHom:
    if gm.algebra != gn.algebra:
        raise ValueError("graded hom needs modules over the same graded algebra")
    group = gm.algebra.group
    f = gm.base.algebra.field
    full = hom_space(gm.base, gn.base)
    sd, td = gm.dim, gn.dim
    components = {}
    for sigma in range(group.order):
        forbidden = [r * sd + c for r in range(td) for c in range(sd)
                     if _degree_of_hom_coord(group, gm.degrees, gn.degrees, r, c) != sigma]
        if full.dim == 0:
            components[sigma] = HomBasis(gm.base, gn.base, Basis.zero(f, sd * td))
            continue
        rows = [[vec[pos] for vec in full.basis.vectors] for pos in forbidden]
        if rows:
            combos = kernel_basis(Matrix(f, rows, cols=full.dim))
        else:
            combos = Basis.full(f, full.dim)
        vecs = [full.basis.from_coords(c) for c in combos.vectors]
        components[sigma] = HomBasis(gm.base, gn.base, Basis.span(f, sd * td, vecs))
    return GradedHom(gm, gn, components)


def degrees_for_hom_basis(hom: HomBasis, group, src_degrees, tgt_degrees) -> tuple:
    """Degree of each basis map of a hom space between graded modules.

    The coordinates of the vectorized hom space partition by degree, so a
    hom space between honestly graded modules has a homogeneous echelon
    basis; a mixed-support vector means the inputs were not graded.
    """
    sd = len(src_degrees)
    out = []
    for vec in hom.basis.vectors:
        seen = None
        for pos, x in enumerate(vec):
            if hom.basis.field.is_zero(x):
                continue
            d = _degree_of_hom_coord(group, src_degrees, tgt_degrees, pos // sd, pos % sd)
            if seen is None:
                seen = d
            elif d != seen:
                raise ValueError("hom basis vector mixes degrees; inputs are not graded")
        out.append(group.identity if seen is None else seen)
    return tuple(out)


def is_graded_isomorphic(gm: GradedModule, gn: GradedModule,
                         samples: int = DEFAULT_ISO_SAMPLES, seed: int = 0,
                         exhaust: int = DEFAULT_ISO_EXHAUST) -> IsoResult:
    """Search for an invertible degree-preserving map (an identity-degree
    hom), with the same coefficient search as the ungraded one."""
    if gm.algebra != gn.algebra:
        raise ValueError("graded iso needs modules over the same graded algebra")
    if gm.dim != gn.dim or gm.component_dims() != gn.component_dims():
        return IsoResult(None, True)
    if gm.dim == 0:
        return IsoResult(Matrix.zeros(gm.base.algebra.field, 0, 0), True)
    h = graded_hom(gm, gn).component(gm.algebra.group.identity)
    return _search_invertible(h, samples, seed, exhaust)


def _graded_submodule_degrees(basis: Basis, degrees, field) -> tuple:
    out = []
    for v in basis.vectors:
        d = homogeneous_degree(v, degrees, field)
        if d is None:
            raise ValueError("subspace is not graded: echelon basis vector mixes degrees")
        out.append(d)
    return tuple(out)


def ideal_degrees(tt: TorsionTheory, galg: GradedAlgebra) -> tuple:
    """Degrees of the stabilized ideal's basis; raises if it is not a
    graded ideal."""
    return _graded_submodule_degrees(tt.stable_ideal.basis, galg.degrees, galg.base.field)


def graded_closed_test(tt: TorsionTheory, gm: GradedModule) -> bool:
    """Invertibility of the closedness map plus degree preservation: the
    column at a degree-lambda coordinate must land in the degree-lambda
    hom component."""
    galg = gm.algebra
    if tt.algebra != galg.base:
        raise ValueError("theory and module are over different algebras")
    src_degs = ideal_degrees(tt, galg)
    res = closedness_map(tt, gm.base)
    if not res.closed:
        return False
    hdegs = degrees_for_hom_basis(res.hom, galg.group, src_degs, gm.degrees)
    f = galg.base.field
    for j in range(gm.dim):
        for row, hd in enumerate(hdegs):
            if not f.is_zero(res.alpha.entries[row][j]) and hd != gm.degrees[j]:
                return False
    return True


def graded_localize(tt: TorsionTheory, gm: GradedModule) -> GradedModule:
    """Localization of the base with the induced grading carried along."""
    galg = gm.algebra
    f = galg.base.field
    t = torsion_submodule(tt, gm.base)
    # quotient coordinates are the non-pivot standard coordinates, which
    # keep their degrees once the torsion submodule is checked graded
    _graded_submodule_degrees(t.basis, gm.degrees, f)
    quo, proj = quotient_module(gm.base, t.basis)
    keep = [i for i in range(gm.dim) if i not in set(t.basis.pivots)]
    quo_degs = tuple(gm.degrees[i] for i in keep)
    res = closedness_map(tt, quo)
    src_degs = ideal_degrees(tt, galg)
    loc_degs = degrees_for_hom_basis(res.hom, galg.group, src_degs, quo_degs)
    return GradedModule(galg, res.hom_module, loc_degs)


class GradedCatalog:
    __slots__ = ("algebra", "modules", "provenance")

    def __init__(self, algebra: GradedAlgebra, modules: tuple, provenance: str):
        self.algebra = algebra
        self.modules = tuple(modules)
        self.provenance = provenance

    @property
    def exhaustive(self) -> bool:
        return self.provenance.startswith("exhaustive")

    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self):
        return iter(self.modules)


def build_graded_catalog(galg: GradedAlgebra, max_dim: int,
                         budget: int = DEFAULT_LATTICE_BUDGET,
                         allow_sampling: bool = False,
                         seed: int = 0) -> GradedCatalog:
    """Every valid grading of every base isomorphism class, deduplicated
    by graded isomorphism.  A sampled base catalog taints the provenance.

    A graded isomorphism is an isomorphism of the base modules, and the
    base representatives are pairwise non-isomorphic, so candidates are
    searched against each other only within one base class and one
    component_dims() vector, the other invariant a graded iso keeps."""
    base_cat = build_catalog(galg.base, max_dim, budget=budget,
                             allow_sampling=allow_sampling, seed=seed)
    order = galg.group.order
    reps = []
    buckets = {}
    for index, mod in enumerate(base_cat):
        for assignment in itertools.product(range(order), repeat=mod.dim):
            try:
                cand = GradedModule(galg, mod, assignment)
            except ValueError:
                continue
            key = (index, cand.component_dims())
            if _keep_new_class(buckets, key, cand, is_graded_isomorphic):
                reps.append(cand)
    reps.sort(key=lambda g: (g.dim, g.degrees))
    if base_cat.exhaustive:
        provenance = f"exhaustive-up-to-dim({max_dim})"
    else:
        provenance = base_cat.provenance
    return GradedCatalog(galg, tuple(reps), provenance)


class GradedContext:
    """A context whose algebras, bimodules, and pairings are all graded;
    grading compatibility is validated at construction."""

    __slots__ = ("context", "graded_r", "graded_s", "m_degrees", "n_degrees")

    def __init__(self, context: MoritaContext, graded_r: GradedAlgebra,
                 graded_s: GradedAlgebra, m_degrees: Sequence[int], n_degrees: Sequence[int]):
        if graded_r.base != context.R or graded_s.base != context.S:
            raise ValueError("gradings are for different algebras")
        if graded_r.group != graded_s.group:
            raise ValueError("both algebras must be graded by the same group")
        m_degs = tuple(m_degrees)
        n_degs = tuple(n_degrees)
        group = graded_r.group
        f = context.R.field
        _check_bimodule_grading(context.M, graded_r.degrees, graded_s.degrees, m_degs, group, "M")
        _check_bimodule_grading(context.N, graded_s.degrees, graded_r.degrees, n_degs, group, "N")
        _check_pairing_grading(context.phi, context.MN, m_degs, n_degs, graded_r.degrees, group, f, "phi")
        _check_pairing_grading(context.psi, context.NM, n_degs, m_degs, graded_s.degrees, group, f, "psi")
        self.context = context
        self.graded_r = graded_r
        self.graded_s = graded_s
        self.m_degrees = m_degs
        self.n_degrees = n_degs


def _check_bimodule_grading(bim, left_degs, right_degs, degs, group, name):
    f = bim.left_algebra.field
    if len(degs) != bim.dim:
        raise ValueError(f"{name}: one degree per basis vector is required")
    for i, act in enumerate(bim.left_action):
        for j in range(bim.dim):
            want = group.mul(left_degs[i], degs[j])
            for k in range(bim.dim):
                if not f.is_zero(act.entries[k][j]) and degs[k] != want:
                    raise ValueError(f"{name}: left action breaks the grading at ({i}, {j})")
    for i, act in enumerate(bim.right_action):
        for j in range(bim.dim):
            want = group.mul(degs[j], right_degs[i])
            for k in range(bim.dim):
                if not f.is_zero(act.entries[k][j]) and degs[k] != want:
                    raise ValueError(f"{name}: right action breaks the grading at ({i}, {j})")


def _check_pairing_grading(pairing, tensor, left_degs, right_degs, out_degs, group, f, name):
    for i in range(len(left_degs)):
        ei = unit_vector(f, len(left_degs), i)
        for j in range(len(right_degs)):
            ej = unit_vector(f, len(right_degs), j)
            want = group.mul(left_degs[i], right_degs[j])
            val = pairing.apply(tensor.pure_tensor(ei, ej))
            for k, x in enumerate(val):
                if not f.is_zero(x) and out_degs[k] != want:
                    raise ValueError(f"{name}: pairing of degrees breaks the grading at ({i}, {j})")


def graded_corner_context(galg: GradedAlgebra, e: Sequence) -> GradedContext:
    """Corner context of a homogeneous identity-degree idempotent, with
    the induced gradings on the corner algebra and both bimodules."""
    from .context import corner_context

    f = galg.base.field
    d = homogeneous_degree(e, galg.degrees, f)
    if d is None or d != galg.group.identity:
        raise ValueError("corner element must be homogeneous of identity degree")
    ctx = corner_context(galg.base, e)
    # degrees of the corner subalgebra and bimodule bases, read off their
    # echelon representatives inside the ambient algebra
    s_degs, m_degs, n_degs = (
        tuple(_require_degree(v, galg) for v in _corner_basis(galg.base, e, kind).vectors)
        for kind in ("ese", "se", "es"))
    graded_s = GradedAlgebra(ctx.S, galg.group, s_degs)
    return GradedContext(ctx, galg, graded_s, m_degs, n_degs)


def _require_degree(v, galg) -> int:
    d = homogeneous_degree(v, galg.degrees, galg.base.field)
    if d is None:
        raise ValueError("corner basis vector is not homogeneous")
    return d


def _corner_basis(a: Algebra, e, kind: str) -> Basis:
    vecs = []
    for i in range(a.dim):
        b = a.basis_vector(i)
        if kind == "ese":
            vecs.append(a.multiply(a.multiply(e, b), e))
        elif kind == "se":
            vecs.append(a.multiply(b, e))
        else:
            vecs.append(a.multiply(e, b))
    return Basis.span(a.field, a.dim, vecs)


def hom_functor_to_s_graded(gctx: GradedContext, gx: GradedModule) -> GradedModule:
    """Hom_R(M, X) with its S-module structure and the mask-read grading."""
    ctx = gctx.context
    mod, h = hom_module(ctx.M, gx.base)
    degs = degrees_for_hom_basis(h, gctx.graded_r.group, gctx.m_degrees, gx.degrees)
    return GradedModule(gctx.graded_s, mod, degs)


def hom_functor_to_r_graded(gctx: GradedContext, gy: GradedModule) -> GradedModule:
    ctx = gctx.context
    mod, h = hom_module(ctx.N, gy.base)
    degs = degrees_for_hom_basis(h, gctx.graded_s.group, gctx.n_degrees, gy.degrees)
    return GradedModule(gctx.graded_r, mod, degs)


def verify_graded_kato_muller(gctx: GradedContext, gcat_r: GradedCatalog,
                              gcat_s: GradedCatalog, strict_sampling: bool = False) -> Report:
    """The graded quotient-equivalence run: closedness, hom-image
    closedness, graded round-trip isos, and suspension invariance of the
    closedness verdict on every catalog member."""
    report = Report("graded quotient category equivalence", strict_sampling)
    report.flag_sampled_catalogs(gcat_r, gcat_s)
    t_i, t_j = context_theories(gctx.context)
    i_note, j_note = trace_ideal_notes(gctx.context, t_i, t_j)
    report.record("context", "trace ideal into R", True, note=i_note)
    report.record("context", "trace ideal into S", True, note=j_note)
    group = gctx.graded_r.group
    _graded_side(report, "R-module", gcat_r, t_i, t_j, group,
                 lambda gx: hom_functor_to_s_graded(gctx, gx),
                 lambda gy: hom_functor_to_r_graded(gctx, gy))
    _graded_side(report, "S-module", gcat_s, t_j, t_i, group,
                 lambda gy: hom_functor_to_r_graded(gctx, gy),
                 lambda gx: hom_functor_to_s_graded(gctx, gx))
    return report


def _graded_side(report, label, catalog, theory_here, theory_there, group,
                 hom_there, hom_back) -> None:
    for idx, gx in enumerate(catalog):
        subject = f"{label}[{idx}] (dim {gx.dim})"
        closed_here = graded_closed_test(theory_here, gx)
        for sigma in range(group.order):
            if sigma == group.identity:
                continue
            same = graded_closed_test(theory_here, suspension(gx, sigma)) == closed_here
            report.record(subject, f"suspension by {sigma} preserves closedness", same)
        note = ""
        if not closed_here:
            gx = graded_localize(theory_here, gx)
            note = f"localized first, now dim {gx.dim}"
        fx = hom_there(gx)
        report.record(subject, "image under hom functor is graded closed",
                      graded_closed_test(theory_there, fx), note=note)
        back = hom_back(fx)
        iso = is_graded_isomorphic(back, gx)
        report.record(subject, "graded round trip isomorphic", iso.found,
                      witness=iso.map_, note=note)
