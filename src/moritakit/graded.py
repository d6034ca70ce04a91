"""Finite-group gradings: graded algebras, modules, homs, and the graded
run of the quotient-equivalence engine.

Degrees are group-element indices attached to basis coordinates.  All the
grading conditions are enforced at construction time, so any GradedAlgebra
or GradedModule in circulation is honestly graded.  Hom spaces decompose
by degree: a map has degree sigma when it sends the lambda component of
the source into the (lambda.sigma) component of the target; every (row,
column) coordinate of a hom matrix belongs to exactly one degree, so the
components are read off the canonical hom basis by pivot degree.
"""

from __future__ import annotations

import itertools
from typing import Dict, NamedTuple, Optional, Sequence

from .algebra import Algebra
from .context import MoritaContext, _corner, raw_pairing, reverse_context
from .equivalence import (
    Catalog,
    Report,
    _ClassLedger,
    build_catalog,
    record_trace_ideals,
)
from .exactlin import Basis, Matrix
from .modules import (
    DEFAULT_LATTICE_BUDGET,
    Bimodule,
    HomBasis,
    IsoResult,
    LeftModule,
    _memo_scope,
    _search_invertible,
    hom_module,
    hom_space,
)
from .torsion import TorsionTheory, is_closed, localize


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


def _stray_column(mat: Matrix, want: Sequence[int], row_degrees: Sequence[int]) -> Optional[int]:
    """The first column j of mat with a nonzero entry in a row whose degree
    is not want[j], or None when every column lands in its degree."""
    f = mat.field
    for j, d in enumerate(want):
        if any(not f.is_zero(row[j]) and row_degrees[k] != d
               for k, row in enumerate(mat.entries)):
            return j
    return None


def _stray_action(actions, alg_degrees: Sequence[int], degs: Sequence[int], group,
                  right: bool = False) -> Optional[tuple]:
    """The first (i, j) where basis element i of an algebra graded by
    alg_degrees, acting on the left (on the right when right) on a space
    graded by degs, moves coordinate j out of its degree; None when every
    action keeps the grading."""
    for i, (act, g) in enumerate(zip(actions, alg_degrees)):
        want = [group.mul(d, g) for d in degs] if right else [group.mul(g, d) for d in degs]
        j = _stray_column(act, want, degs)
        if j is not None:
            return i, j
    return None


def _degrees_of(vectors, coord_degrees: Sequence[int], field, error: str) -> tuple:
    """The degree of each vector, raising ValueError(error) at the first
    one that is zero or whose support mixes degrees."""
    out = []
    for v in vectors:
        seen = {coord_degrees[i] for i, x in enumerate(v) if not field.is_zero(x)}
        if len(seen) != 1:
            raise ValueError(error)
        out.append(seen.pop())
    return tuple(out)


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
        stray = _stray_action((base.left_mult_matrix(base.basis_vector(i)) for i in range(base.dim)),
                              degs, degs, group)
        if stray is not None:
            raise ValueError("product of basis {} and {} has a component in the wrong degree".format(*stray))
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
        stray = _stray_action(base.action, algebra.degrees, degs, group)
        if stray is not None:
            raise ValueError("action of basis {} on coordinate {} leaves its degree".format(*stray))
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


def _hom_coord_degrees(group, src_degrees, tgt_degrees) -> tuple:
    # f(M_lambda) subset N_{lambda.sigma}: the row-major coordinate (r, c)
    # carries sigma = lambda^(-1) . mu with lambda = deg(c), mu = deg(r)
    return tuple(group.mul(group.inv(lam), mu) for mu in tgt_degrees for lam in src_degrees)


class GradedHom(NamedTuple):
    """Degree decomposition of a hom space: one HomBasis per degree."""

    source: GradedModule
    target: GradedModule
    components: Dict[int, HomBasis]

    @property
    def total_dim(self) -> int:
        return sum(h.dim for h in self.components.values())

    def component(self, sigma: int) -> HomBasis:
        return self.components[sigma]


def graded_hom(gm: GradedModule, gn: GradedModule) -> GradedHom:
    if gm.algebra != gn.algebra:
        raise ValueError("graded hom needs modules over the same graded algebra")
    full = hom_space(gm.base, gn.base)
    coord_degs = _hom_coord_degrees(gm.algebra.group, gm.degrees, gn.degrees)
    return GradedHom(gm, gn, {sigma: _hom_component(full, coord_degs, sigma)
                              for sigma in range(gm.algebra.group.order)})


def _hom_component(full: HomBasis, coord_degrees: Sequence[int], sigma: int) -> HomBasis:
    """The degree-sigma maps of a hom space between graded modules: its
    canonical basis vectors whose pivot has degree sigma.  The coordinates
    partition by degree and the space is the sum of its components, so the
    union of the components' RREF bases is in RREF: by uniqueness it is
    full's basis, whose degree-sigma part is the component's RREF basis."""
    picked = [(v, c) for v, c in zip(full.basis.vectors, full.basis.pivots)
              if coord_degrees[c] == sigma]
    vecs, pivots = tuple(zip(*picked)) or ((), ())
    return HomBasis(full.source, full.target, Basis(full.basis.field, len(coord_degrees), vecs, pivots))


def degrees_for_hom_basis(hom: HomBasis, group, src_degrees, tgt_degrees) -> tuple:
    """Degree of each basis map of a hom space between graded modules.

    The coordinates of the vectorized hom space partition by degree, so a
    hom space between honestly graded modules has a homogeneous echelon
    basis; a mixed-support vector means the inputs were not graded.
    """
    return _degrees_of(hom.basis.vectors, _hom_coord_degrees(group, src_degrees, tgt_degrees),
                       hom.basis.field, "hom basis vector mixes degrees; inputs are not graded")


def is_graded_isomorphic(gm: GradedModule, gn: GradedModule) -> IsoResult:
    """Search for an invertible degree-preserving map (an identity-degree
    hom), by is_isomorphic's search (_search_invertible) over the
    degree-preserving component, against the degree-preserving
    endomorphisms of gm: where it is exhaustive, found (a Hom-dimension
    disproof, then seeded draws, then the walk) and the lexicographically
    first map_ are each computed when read."""
    if gm.algebra != gn.algebra:
        raise ValueError("graded iso needs modules over the same graded algebra")
    if gm.dim != gn.dim or gm.component_dims() != gn.component_dims():
        return IsoResult(None, True)
    if gm.dim == 0:
        return IsoResult(Matrix.zeros(gm.base.algebra.field, 0, 0), True)
    group = gm.algebra.group

    def preserving(gx: GradedModule) -> HomBasis:
        return _hom_component(hom_space(gm.base, gx.base), _hom_coord_degrees(group, gm.degrees, gx.degrees),
                              group.identity)

    return _search_invertible(preserving(gn), lambda: preserving(gm))


_NOT_GRADED = "subspace is not graded: echelon basis vector mixes degrees"


def ideal_degrees(tt: TorsionTheory, galg: GradedAlgebra) -> tuple:
    """Degrees of the stabilized ideal's basis; raises if it is not a
    graded ideal."""
    return _degrees_of(tt.stable_ideal.basis.vectors, galg.degrees, galg.base.field, _NOT_GRADED)


def graded_closed_test(tt: TorsionTheory, gm: GradedModule) -> bool:
    """is_closed on the base module, for a graded ideal.  No degree check is
    needed: for a of degree lambda and x of degree d, alpha(x): a |-> a.x
    has degree d, so alpha preserves degrees whenever its inputs are graded."""
    if tt.algebra != gm.algebra.base:
        raise ValueError("theory and module are over different algebras")
    ideal_degrees(tt, gm.algebra)
    return is_closed(tt, gm.base)


def graded_localize(tt: TorsionTheory, gm: GradedModule) -> GradedModule:
    """localize(tt, gm.base), with its asserted contract, and the induced
    grading: the torsion submodule must be graded, so the quotient's
    coordinates (the non-pivot ones) keep their degrees, and the
    localization's degrees are read off its hom basis."""
    galg = gm.algebra
    loc = localize(tt, gm.base)
    torsion = loc.torsion.basis
    _degrees_of(torsion.vectors, gm.degrees, galg.base.field, _NOT_GRADED)
    quo_degs = tuple(d for i, d in enumerate(gm.degrees) if i not in torsion.pivots)
    loc_degs = degrees_for_hom_basis(loc.hom, galg.group, ideal_degrees(tt, galg), quo_degs)
    return GradedModule(galg, loc.module, loc_degs)


@_memo_scope()
def build_graded_catalog(galg: GradedAlgebra, max_dim: int,
                         budget: int = DEFAULT_LATTICE_BUDGET,
                         allow_sampling: bool = False,
                         seed: int = 0) -> Catalog:
    """Every valid grading of every base isomorphism class, deduplicated
    by graded isomorphism in a _ClassLedger.  The base catalog, and so
    every walk behind it, is build_catalog's under the same budget,
    sampling and seed.  A sampled base catalog, or a class kept after a
    sampled graded iso search missed, taints the provenance.

    A graded isomorphism is an isomorphism of the base modules, and the
    base representatives are pairwise non-isomorphic, so candidates are
    searched against each other only within one base class and one
    component_dims() vector, the other invariant a graded iso keeps."""
    base_cat = build_catalog(galg.base, max_dim, budget=budget,
                             allow_sampling=allow_sampling, seed=seed)
    order = galg.group.order
    ledger = _ClassLedger(is_graded_isomorphic)
    for index, mod in enumerate(base_cat):
        for assignment in itertools.product(range(order), repeat=mod.dim):
            try:
                cand = GradedModule(galg, mod, assignment)
            except ValueError:
                continue
            ledger.add(cand, lambda c: (index, c.component_dims()))
    return ledger.catalog(galg, base_cat.provenance, lambda g: (g.dim, g.degrees))


def check_bimodule_degrees(bim: Bimodule, graded_left: GradedAlgebra,
                           graded_right: GradedAlgebra, degs: Sequence[int], name: str) -> None:
    """Raise ValueError, naming the bimodule `name`, unless degs grade bim:
    one degree per basis vector in range, and each basis element of degree
    g of the left (right) algebra sends degree d to g.d (d.g)."""
    group = graded_left.group
    if len(degs) != bim.dim:
        raise ValueError(f"{name}: one degree per basis vector is required")
    if any(not 0 <= d < group.order for d in degs):
        raise ValueError(f"{name}: degree index out of range")
    for side, actions, galg in (("left", bim.left_action, graded_left),
                                ("right", bim.right_action, graded_right)):
        stray = _stray_action(actions, galg.degrees, degs, group, right=side == "right")
        if stray is not None:
            raise ValueError(f"{name}: {side} action breaks the grading at {stray}")


class GradedContext:
    """A context whose algebras, bimodules, and pairings are all graded;
    grading compatibility is validated at construction.  The N and psi
    conditions are the M and phi ones of the reversed graded context."""

    __slots__ = ("context", "graded_r", "graded_s", "m_degrees", "n_degrees")

    def __init__(self, context: MoritaContext, graded_r: GradedAlgebra,
                 graded_s: GradedAlgebra, m_degrees: Sequence[int], n_degrees: Sequence[int]):
        if graded_r.base != context.R or graded_s.base != context.S:
            raise ValueError("gradings are for different algebras")
        if graded_r.group != graded_s.group:
            raise ValueError("both algebras must be graded by the same group")
        self.context = context
        self.graded_r = graded_r
        self.graded_s = graded_s
        self.m_degrees = tuple(m_degrees)
        self.n_degrees = tuple(n_degrees)
        group = graded_r.group
        rev = reverse_graded_context(self)
        for g, name in ((self, "M"), (rev, "N")):
            check_bimodule_degrees(g.context.M, g.graded_r, g.graded_s, g.m_degrees, name)
        for g, name in ((self, "phi"), (rev, "psi")):
            want = [group.mul(a, b) for a in g.m_degrees for b in g.n_degrees]
            col = _stray_column(raw_pairing(g.context), want, g.graded_r.degrees)
            if col is not None:
                i, j = divmod(col, len(g.n_degrees))
                raise ValueError(f"{name}: pairing of degrees breaks the grading at ({i}, {j})")


def reverse_graded_context(gctx: GradedContext) -> GradedContext:
    """The graded context of reverse_context: the two sides swap their
    algebras, bimodules, and degree lists.  Not validated again, since
    gctx was checked when it was built."""
    rev = object.__new__(GradedContext)
    rev.context = reverse_context(gctx.context)
    rev.graded_r, rev.graded_s = gctx.graded_s, gctx.graded_r
    rev.m_degrees, rev.n_degrees = gctx.n_degrees, gctx.m_degrees
    return rev


def graded_corner_context(galg: GradedAlgebra, e: Sequence) -> GradedContext:
    """Corner context of a homogeneous identity-degree idempotent, with
    the induced gradings on the corner algebra and both bimodules."""
    f = galg.base.field
    not_identity = "corner element must be homogeneous of identity degree"
    if _degrees_of([e], galg.degrees, f, not_identity) != (galg.group.identity,):
        raise ValueError(not_identity)
    ctx, spans = _corner(galg.base, e)
    # degrees of the corner subalgebra and bimodule bases, read off their
    # echelon representatives inside the ambient algebra
    s_degs, m_degs, n_degs = (
        _degrees_of(sp.vectors, galg.degrees, f, "corner basis vector is not homogeneous")
        for sp in spans)
    graded_s = GradedAlgebra(ctx.S, galg.group, s_degs)
    return GradedContext(ctx, galg, graded_s, m_degs, n_degs)


def hom_functor_to_s_graded(gctx: GradedContext, gx: GradedModule) -> GradedModule:
    """Hom_R(M, X) with its S-module structure and the mask-read grading."""
    ctx = gctx.context
    mod, h = hom_module(ctx.M, gx.base)
    degs = degrees_for_hom_basis(h, gctx.graded_r.group, gctx.m_degrees, gx.degrees)
    return GradedModule(gctx.graded_s, mod, degs)


@_memo_scope()
def verify_graded_kato_muller(gctx: GradedContext, gcat_r: Catalog,
                              gcat_s: Catalog) -> Report:
    """The graded quotient-equivalence run: closedness, hom-image
    closedness, graded round-trip isos, and suspension invariance of the
    closedness verdict on every catalog member.  Sampled catalogs and
    round-trip searches that sampled and missed are flagged (Report)."""
    report = Report("graded quotient category equivalence")
    report.flag_sampled_catalogs(gcat_r, gcat_s)
    t_i, t_j, _ = record_trace_ideals(report, "context", gctx.context)
    _graded_side(report, "R-module", gcat_r, t_i, t_j, gctx)
    _graded_side(report, "S-module", gcat_s, t_j, t_i, reverse_graded_context(gctx))
    return report


def _graded_side(report, label, catalog, theory_here, theory_there, gctx: GradedContext) -> None:
    # the hom functor out of this side is Hom_R(M, -) of gctx; the one back
    # is the same functor of the reversed graded context
    rev = reverse_graded_context(gctx)
    group = gctx.graded_r.group
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
        fx = hom_functor_to_s_graded(gctx, gx)
        report.record(subject, "image under hom functor is graded closed",
                      graded_closed_test(theory_there, fx), note=note)
        back = hom_functor_to_s_graded(rev, fx)
        report.record_round_trip(subject, "graded round trip isomorphic",
                                 is_graded_isomorphic(back, gx), note)
