"""Morita contexts between two finite-dimensional algebras.

A context is (R, S, M, N, phi, psi): M an (R,S)-bimodule, N an (S,R)-
bimodule, phi: M (x)_S N -> R an (R,R)-bimodule map, psi: N (x)_R M -> S
an (S,S)-bimodule map, subject to the two compatibility identities

    phi(m (x) n).m' = m.psi(n (x) m')      psi(n (x) m).n' = n.phi(m (x) n')

Both tensor spaces are computed once per context with the canonical basis
convention from tensor_over, and phi/psi are stored as matrices on those
computed spaces.  Workspace files and the corner construction provide the
maps on the raw product basis; from_raw_maps checks well-definedness
(vanishing on the balancing relations) before pushing down, and
raw_pairing reads a pairing back on that basis.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

from .algebra import Algebra, Ideal, subalgebra_on_basis
from .exactlin import (
    Basis,
    Matrix,
    invertible_search,
    kernel_basis,
    points_fit,
    solve,
    sparse_kernel_basis,
)
from .modules import (
    DEFAULT_ISO_EXHAUST,
    DEFAULT_ISO_SAMPLES,
    Bimodule,
    HomBasis,
    IsoResult,
    LeftModule,
    TensorProduct,
    _intertwiners,
    hom_module,
    hom_space,
    regular_bimodule,
    regular_module,
    tensor_over,
)


class MoritaContext:
    __slots__ = ("R", "S", "M", "N", "MN", "NM", "phi", "psi")

    def __init__(self, R: Algebra, S: Algebra, M: Bimodule, N: Bimodule, phi: Matrix, psi: Matrix):
        if M.left_algebra != R or M.right_algebra != S:
            raise ValueError("M must be an (R, S)-bimodule")
        if N.left_algebra != S or N.right_algebra != R:
            raise ValueError("N must be an (S, R)-bimodule")
        self._attach(R, S, M, N, tensor_over(S, M, N), tensor_over(R, N, M), phi, psi)

    def _attach(self, R, S, M, N, MN: TensorProduct, NM: TensorProduct,
                phi: Matrix, psi: Matrix) -> None:
        if phi.rows != R.dim or phi.cols != MN.dim:
            raise ValueError(f"phi is {phi.rows}x{phi.cols}, want {R.dim}x{MN.dim}")
        if psi.rows != S.dim or psi.cols != NM.dim:
            raise ValueError(f"psi is {psi.rows}x{psi.cols}, want {S.dim}x{NM.dim}")
        self.R, self.S, self.M, self.N = R, S, M, N
        self.MN, self.NM = MN, NM
        self.phi, self.psi = phi, psi

    @classmethod
    def from_raw_maps(cls, R, S, M, N, phi_raw: Matrix, psi_raw: Matrix) -> "MoritaContext":
        """Build from maps given on the raw product bases.

        phi_raw columns are indexed (i, j) |-> i*dim(N)+j against M and N
        basis pairs; psi_raw likewise with N major.  Raises ValueError if a
        map fails to vanish on the balancing relations (not well-defined on
        the tensor quotient).  The tensor spaces built for that check are
        the ones the context keeps.
        """
        MN = tensor_over(S, M, N)
        NM = tensor_over(R, N, M)
        for name, raw, t in (("phi", phi_raw, MN), ("psi", psi_raw, NM)):
            if any(any(raw.apply(rel)) for rel in t.relations.vectors):
                raise ValueError(f"{name} is not well-defined on the tensor quotient")
        ctx = object.__new__(cls)
        ctx._attach(R, S, M, N, MN, NM, phi_raw.pick_cols(MN.quotient.nonpivots),
                    psi_raw.pick_cols(NM.quotient.nonpivots))
        return ctx

    def __repr__(self) -> str:
        return f"MoritaContext(R dim {self.R.dim}, S dim {self.S.dim}, M dim {self.M.dim}, N dim {self.N.dim})"


def raw_pairing(ctx: MoritaContext) -> Matrix:
    """phi on the raw product basis, the inverse of from_raw_maps: column
    i*dim(N)+j is phi(m_i (x) n_j).  The psi side is the raw pairing of
    reverse_context(ctx)."""
    return ctx.phi @ ctx.MN.projection


def validate_context(ctx: MoritaContext) -> list:
    """Bimodule-map conditions for phi and psi plus the two compatibility
    identities.  Returns failure strings.

    M and N must pass validate_module.  Linearity is checked on the
    generators (Algebra.generator_indices), since the a with
    phi(a.t) = a phi(t) for all t form a subalgebra, and on the right
    alike; compatibility on all basis triples, each psi(n_j (x) m_k) once.

    Each psi or N-side condition is the phi or M-side one of the reversed
    context, so every check is written once and run on both contexts.
    """
    out = []
    rev = reverse_context(ctx)
    for c, name, alg in ((ctx, "phi", "R"), (rev, "psi", "S")):
        for r in c.R.generator_indices():
            e = c.R.basis_vector(r)
            if (c.phi @ c.MN.left_action[r]) != (c.R.left_mult_matrix(e) @ c.phi):
                out.append(f"{name} fails left {alg}-linearity at basis {r}")
            if (c.phi @ c.MN.right_action[r]) != (c.R.right_mult_matrix(e) @ c.phi):
                out.append(f"{name} fails right {alg}-linearity at basis {r}")
    raws = (raw_pairing(ctx), raw_pairing(rev))
    for c, (phi_raw, psi_raw), names, mod in ((ctx, raws, "phi/psi", "M"),
                                              (rev, raws[::-1], "psi/phi", "N")):
        m_left = c.M.left_module()
        m_right = c.M.right_module()
        phis, psis = phi_raw.columns(), psi_raw.columns()
        # psi_cols[j][k][i] = m_i.psi(n_j (x) m_k), formed once per (j, k)
        psi_cols = [[m_right.action_of(psis[j * c.M.dim + k]).columns() for k in range(c.M.dim)]
                    for j in range(c.N.dim)]
        for i in range(c.M.dim):
            for j in range(c.N.dim):
                act = m_left.action_of(phis[i * c.N.dim + j]).columns()
                for k in range(c.M.dim):
                    if act[k] != psi_cols[j][k][i]:
                        out.append(f"{names} compatibility in {mod} fails at ({i}, {j}, {k})")
    return out


def corner_context(a: Algebra, e: Sequence) -> MoritaContext:
    """The context (A, eAe, Ae, eA, mult, mult) for an idempotent e."""
    return _corner(a, e)[0]


def _corner(a: Algebra, e: Sequence) -> tuple:
    """corner_context together with the spans eAe, Ae and eA inside A whose
    echelon bases are the bases of its S, M and N."""
    if a.multiply(e, e) != tuple(e):
        raise ValueError("corner element is not idempotent")
    f = a.field
    s_basis = Basis.span(f, a.dim, [a.multiply(a.multiply(e, a.basis_vector(i)), e) for i in range(a.dim)])
    S, incl_s = subalgebra_on_basis(a, s_basis, e)

    m_basis = Basis.span(f, a.dim, [a.multiply(a.basis_vector(i), e) for i in range(a.dim)])
    n_basis = Basis.span(f, a.dim, [a.multiply(e, a.basis_vector(i)) for i in range(a.dim)])

    def restrict(space: Basis, mult) -> Matrix:
        return space.coords_matrix((mult(v) for v in space.vectors), "corner subspace is not stable")

    m_left = [restrict(m_basis, lambda v, x=a.basis_vector(i): a.multiply(x, v)) for i in range(a.dim)]
    m_right = [restrict(m_basis, lambda v, x=incl_s.col(t): a.multiply(v, x)) for t in range(S.dim)]
    M = Bimodule(a, S, m_basis.dim, m_left, m_right)

    n_left = [restrict(n_basis, lambda v, x=incl_s.col(t): a.multiply(x, v)) for t in range(S.dim)]
    n_right = [restrict(n_basis, lambda v, x=a.basis_vector(i): a.multiply(v, x)) for i in range(a.dim)]
    N = Bimodule(S, a, n_basis.dim, n_left, n_right)

    phi_raw = Matrix.from_cols(f, [a.multiply(m, n) for m in m_basis.vectors for n in n_basis.vectors],
                               rows=a.dim)
    psi_raw = s_basis.coords_matrix((a.multiply(n, m) for n in n_basis.vectors for m in m_basis.vectors),
                                    "corner product left eAe")

    ctx = MoritaContext.from_raw_maps(a, S, M, N, phi_raw, psi_raw)
    bad = validate_context(ctx)
    if bad:
        raise AssertionError(f"corner context failed validation: {bad[:3]}")
    return ctx, (s_basis, m_basis, n_basis)


def identity_context(a: Algebra) -> MoritaContext:
    """The context (A, A, A, A, mult, mult)."""
    bim = regular_bimodule(a)
    cols = [a.mul[i][j] for i in range(a.dim) for j in range(a.dim)]
    raw = Matrix.from_cols(a.field, cols, rows=a.dim)
    ctx = MoritaContext.from_raw_maps(a, a, bim, bim, raw, raw)
    bad = validate_context(ctx)
    if bad:
        raise AssertionError(f"identity context failed validation: {bad[:3]}")
    return ctx


def reverse_context(ctx: MoritaContext) -> MoritaContext:
    """Swap the roles of the two algebras: (S, R, N, M, psi, phi).

    The tensor spaces are canonical, so the reversed context takes over
    ctx's N (x)_R M and M (x)_S N as its M (x) N and N (x) M instead of
    computing them again; ctx was checked when it was built.
    """
    rev = object.__new__(MoritaContext)
    rev.R, rev.S, rev.M, rev.N = ctx.S, ctx.R, ctx.N, ctx.M
    rev.MN, rev.NM = ctx.NM, ctx.MN
    rev.phi, rev.psi = ctx.psi, ctx.phi
    return rev


def trace_ideals(ctx: MoritaContext) -> tuple:
    """(image of phi in R, image of psi in S); always two-sided ideals."""
    i_basis = Basis.span(ctx.R.field, ctx.R.dim, ctx.phi.columns())
    j_basis = Basis.span(ctx.S.field, ctx.S.dim, ctx.psi.columns())
    return Ideal(ctx.R, i_basis), Ideal(ctx.S, j_basis)


def is_strict(ctx: MoritaContext) -> bool:
    i, j = trace_ideals(ctx)
    return i.dim == ctx.R.dim and j.dim == ctx.S.dim


class NaturalMap(NamedTuple):
    """A component of eta or rho at a module X: the matrix of the canonical
    map together with the tensor plumbing needed for naturality squares."""

    matrix: Matrix  # X.dim x outer.dim
    outer: TensorProduct  # M (x) inner  (resp. N (x) inner)
    inner: TensorProduct  # N (x) X      (resp. M (x) Y)


def eta_map(ctx: MoritaContext, x: LeftModule) -> NaturalMap:
    """eta(X): M (x)_S N (x)_R X -> X sending m (x) n (x) x to phi(m (x) n).x."""
    if x.algebra != ctx.R:
        raise ValueError("eta expects a left module over R")
    return _eta(ctx, x)


def rho_map(ctx: MoritaContext, y: LeftModule) -> NaturalMap:
    """rho(Y): N (x)_R M (x)_S Y -> Y sending n (x) m (x) y to psi(n (x) m).y,
    which is eta of the reversed context."""
    if y.algebra != ctx.S:
        raise ValueError("rho expects a left module over S")
    return _eta(reverse_context(ctx), y)


def closed_via_eta(ctx: MoritaContext, x: LeftModule) -> bool:
    """Closedness relative to the context: composition with eta on the
    regular module must be a bijection Hom(R, X) -> Hom(M(x)N(x)R, X)."""
    if x.algebra != ctx.R:
        raise ValueError("module is over the wrong algebra")
    u = regular_module(ctx.R)
    em = eta_map(ctx, u)
    outer_mod = em.outer.as_left_module()
    h_u = hom_space(u, x)
    h_fg = hom_space(outer_mod, x)
    if h_u.dim != h_fg.dim:
        return False
    mat = h_fg.coords_matrix((beta @ em.matrix for beta in h_u.matrices),
                             "composition with eta left the hom space")
    return mat.is_invertible()


def _eta(ctx: MoritaContext, x: LeftModule) -> NaturalMap:
    inner = tensor_over(ctx.R, ctx.N, x)
    outer = tensor_over(ctx.S, ctx.M, inner.as_left_module())
    # outer basis vector s = i*dim(inner) + t is m_i (x) (n_j (x) x_k) for
    # the raw index j*dim X + k of inner's free column t, and maps to
    # phi(m_i (x) n_j).x_k
    acts = [x.action_of(r) for r in raw_pairing(ctx).columns()]
    cols = []
    for s in outer.quotient.nonpivots:
        i, t = divmod(s, inner.dim)
        j, k = divmod(inner.quotient.nonpivots[t], x.dim)
        cols.append(acts[i * ctx.N.dim + j].col(k))
    matrix = Matrix.from_cols(x.algebra.field, cols, rows=x.dim)
    return NaturalMap(matrix, outer, inner)


class AdjointUnit(NamedTuple):
    """eta'(X): X -> Hom_S(N, Hom_R(M, X)) (or its rho' mirror)."""

    matrix: Matrix  # target.dim x X.dim
    target: LeftModule


def eta_prime_map(ctx: MoritaContext, x: LeftModule) -> AdjointUnit:
    """x |-> (n |-> (m |-> phi(m (x) n).x)), the closed-object comparison."""
    if x.algebra != ctx.R:
        raise ValueError("eta' expects a left module over R")
    return _eta_prime(ctx, x)


def rho_prime_map(ctx: MoritaContext, y: LeftModule) -> AdjointUnit:
    """y |-> (m |-> (n |-> psi(n (x) m).y)), eta' of the reversed context."""
    if y.algebra != ctx.S:
        raise ValueError("rho' expects a left module over S")
    return _eta_prime(reverse_context(ctx), y)


def _eta_prime(ctx: MoritaContext, x: LeftModule) -> AdjointUnit:
    f = ctx.R.field
    h1_mod, h1 = hom_module(ctx.M, x)
    h2_mod, h2 = hom_module(ctx.N, h1_mod)
    acts = [x.action_of(r) for r in raw_pairing(ctx).columns()]

    def image(k: int) -> Matrix:
        # n_j |-> (m_i |-> phi(m_i (x) n_j).x_k), in the coordinates of Hom(M, X)
        return h1.coords_matrix(
            (Matrix.from_cols(f, [act.col(k) for act in acts[j::ctx.N.dim]], rows=x.dim)
             for j in range(ctx.N.dim)), "eta' image escaped Hom(M, X)")

    matrix = h2.coords_matrix((image(k) for k in range(x.dim)),
                              "eta' image escaped Hom(N, Hom(M, X))")
    return AdjointUnit(matrix, h2_mod)


class Counit(NamedTuple):
    matrix: Matrix  # X.dim x tensor.dim
    tensor: TensorProduct
    hom_module: LeftModule
    hom: HomBasis


def evaluation_counit(ctx: MoritaContext, x: LeftModule) -> Counit:
    """M (x)_S Hom_R(M, X) -> X by evaluation m (x) f |-> f(m)."""
    if x.algebra != ctx.R:
        raise ValueError("evaluation expects a left module over R")
    f = ctx.R.field
    h_mod, h = hom_module(ctx.M, x)
    t = tensor_over(ctx.S, ctx.M, h_mod)
    # free column s = i*dim(h) + a is m_i (x) f_a, sent to f_a(m_i)
    cols = [h.matrices[s % h.dim].col(s // h.dim) for s in t.quotient.nonpivots]
    return Counit(Matrix.from_cols(f, cols, rows=x.dim), t, h_mod, h)


def compose_contexts(first: MoritaContext, second: MoritaContext) -> MoritaContext:
    """The composite context between first.R and second.S.

    Bimodules are M1 (x)_S M2 and N2 (x)_S N1 (S the shared middle
    algebra); the new pairings thread one pairing through the other.  The
    composite's psi is the phi of the reversed composite, whose bimodules
    are the same two tensor products in swapped roles.
    """
    if first.S != second.R:
        raise ValueError("contexts do not share a middle algebra")
    m_t = tensor_over(first.S, first.M, second.M)
    n_t = tensor_over(first.S, second.N, first.N)
    phi_raw = _composite_pairing(first, second, m_t, n_t)
    psi_raw = _composite_pairing(reverse_context(second), reverse_context(first), n_t, m_t)
    return MoritaContext.from_raw_maps(first.R, second.S, m_t.as_bimodule(), n_t.as_bimodule(),
                                       phi_raw, psi_raw)


def _composite_pairing(first: MoritaContext, second: MoritaContext,
                       m_t: TensorProduct, n_t: TensorProduct) -> Matrix:
    # (m (x) m') (x) (n' (x) n) |-> phi1(m (x) phi2(m' (x) n').n) on the raw
    # product basis of m_t = M1 (x) M2 and n_t = N2 (x) N1: block i of phi1's
    # raw matrix times the action of phi2(m'_ip (x) n'_jp) on N1 gives the
    # values at (i, ip, jp, j) for every j; the pairing on m_t's free column
    # u and n_t's free column v is the raw column at (u-th, v-th) free index
    f = first.R.field
    d1, d2, e2, e1 = first.M.dim, second.M.dim, second.N.dim, first.N.dim
    raw1 = raw_pairing(first).columns()
    blocks = [Matrix.from_cols(f, raw1[i * e1:(i + 1) * e1], rows=first.R.dim) for i in range(d1)]
    n1_left = first.N.left_module()
    acts = [n1_left.action_of(s) for s in raw_pairing(second).columns()]
    cols = []
    for i in range(d1):
        for ip in range(d2):
            for jp in range(e2):
                cols.extend((blocks[i] @ acts[ip * e2 + jp]).columns())
    raw = Matrix.from_cols(f, cols, rows=first.R.dim)
    return raw.pick_cols([u * e2 * e1 + v for u in m_t.quotient.nonpivots
                          for v in n_t.quotient.nonpivots])


def bimodule_hom_space(a: Bimodule, b: Bimodule) -> HomBasis:
    """Maps intertwining both the left and the right actions, solved on the
    generators of each algebra, which intertwine all of it."""
    if a.left_algebra != b.left_algebra or a.right_algebra != b.right_algebra:
        raise ValueError("bimodules over different algebra pairs")
    pairs = [(a.left_action[g], b.left_action[g]) for g in a.left_algebra.generator_indices()]
    pairs += [(a.right_action[g], b.right_action[g]) for g in a.right_algebra.generator_indices()]
    basis = sparse_kernel_basis(a.left_algebra.field, _intertwiners(a.dim, b.dim, pairs), a.dim * b.dim)
    return HomBasis(a.left_module(), b.left_module(), basis)


def contexts_isomorphic(c1: MoritaContext, c2: MoritaContext, seed: int = 0) -> IsoResult:
    """Search for bimodule isos u: M1 -> M2, v: N1 -> N2 carrying one
    pairing pair to the other: phi2 (u (x) v) = phi1, psi2 (v (x) u) = psi1.
    A hit is an IsoResult whose map_ is the pair (u, v).

    Unequal trace ideals (isomorphism invariants) or dims, or a zero
    bimodule Hom, are an immediate proven 'none'.  invertible_search offers
    the invertible u (DEFAULT_ISO_EXHAUST, DEFAULT_ISO_SAMPLES, from the
    seed); where it would sample, u = I is offered first, and a hit there
    is a proof.  For each u the conditions are linear in v, so v is
    solved.  Only degenerate pairings leave slack: a singular particular
    solution v is the base of a second invertible_search over v + ker
    (256, 64, same rng).
    """
    if c1.R != c2.R or c1.S != c2.S:
        raise ValueError("context isomorphism needs matching algebra pairs")
    i1, j1 = trace_ideals(c1)
    i2, j2 = trace_ideals(c2)
    if i1.basis != i2.basis or j1.basis != j2.basis:
        return IsoResult(None, True)
    if c1.M.dim != c2.M.dim or c1.N.dim != c2.N.dim:
        return IsoResult(None, True)
    f = c1.R.field
    hom_u = bimodule_hom_space(c1.M, c2.M)
    hom_v = bimodule_hom_space(c1.N, c2.N)
    if hom_u.dim == 0 or hom_v.dim == 0:
        if c1.M.dim == 0 and c1.N.dim == 0:
            zero = Matrix.zeros(f, 0, 0)
            return IsoResult((zero, zero), True)
        return IsoResult(None, True)

    rng = random.Random(seed)
    v_exhaustive = True

    def pair_for(coeffs, u: Matrix) -> Optional[tuple]:
        nonlocal v_exhaustive
        # solve for v: stack phi2 (u (x) v_b) and psi2 (v_b (x) u) over the
        # v-basis, match against phi1 / psi1
        cols = []
        for vb in hom_v.matrices:
            left = c2.phi @ c1.MN.induced_map(c2.MN, u, vb)
            right = c2.psi @ c1.NM.induced_map(c2.NM, vb, u)
            cols.append(tuple(x for row in left.entries for x in row)
                        + tuple(x for row in right.entries for x in row))
        target = tuple(x for row in c1.phi.entries for x in row) + tuple(
            x for row in c1.psi.entries for x in row)
        system = Matrix.from_cols(f, cols, rows=len(target))
        sol = solve(system, target)
        if sol is None:
            return None
        v = hom_v.from_coords(sol)
        if v.is_invertible():
            return u, v
        # degenerate pairings leave slack: walk v + ker for an invertible v
        slack = [hom_v.from_coords(k) for k in kernel_basis(system).vectors]
        if not slack:
            return None
        v, exhaustive = invertible_search(f, slack, lambda c, m: m, 256, 64, rng, base=v)
        v_exhaustive = v_exhaustive and exhaustive
        return None if v is None else (u, v)

    if not points_fit(f, hom_u.dim, DEFAULT_ISO_EXHAUST):
        # where the walk would sample, u = I goes first, as is_isomorphic
        # tries the identity: a hit is a proof, and a miss leaves the draws
        # of the search as they were
        eye = Matrix.identity(f, c1.M.dim)
        hit = pair_for(None, eye) if hom_u.coords(eye) is not None else None
        if hit is not None:
            return IsoResult(hit, True)
        rng.seed(seed)
    hit, exhaustive = invertible_search(f, hom_u.matrices, pair_for, DEFAULT_ISO_EXHAUST,
                                        DEFAULT_ISO_SAMPLES, rng)
    if hit is None:
        # a miss is a proof only when every search behind it was exhaustive
        return IsoResult(None, exhaustive and v_exhaustive)
    return IsoResult(hit, exhaustive)
