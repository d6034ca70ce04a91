"""Finite-dimensional modules and bimodules, with the constructions the
verification engine is built from: hom spaces, balanced tensor products,
annihilators, submodule enumeration, quotients, and isomorphism search.

Conventions fixed here and relied on everywhere else:
  * a module map f: M -> N is a (dim N x dim M) matrix, vectorized row-major
    when a hom space is solved for;
  * the raw basis of a tensor product M (x) N is indexed (i, j) |-> i*dim(N)+j
    (left factor major), and the computed tensor basis is the non-pivot
    coordinate set of the balancing relation span, so tensor spaces are
    canonical and deterministic;
  * submodule enumeration emits RREF bases ordered by (dimension, RREF
    vectors), whether the list is exhaustive or sampled.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import random
from typing import Callable, Optional, Sequence, Union

from . import exactlin
from .algebra import Algebra, Ideal
from .exactlin import (
    Basis,
    Matrix,
    _combination,
    _dot_products,
    _pivot_rows,
    basis_sum,
    closure,
    invertible_search,
    kernel_basis,
    points_fit,
    quotient_structure,
    random_scalar,
    rank,
    sparse_kernel_basis,
    sparse_span,
)

DEFAULT_ENUM_BUDGET = 81  # p**dim cap: dim <= 6 over GF(2), dim <= 4 over GF(3)
DEFAULT_LATTICE_BUDGET = 4096
DEFAULT_ISO_EXHAUST = 4096  # p**d cap on exhaustive coefficient search
DEFAULT_ISO_SAMPLES = 512
DEFAULT_ISO_PROOF_DRAWS = 8  # seeded draws that may prove an exhaustive search's hit before it walks


class BudgetExceeded(Exception):
    """An exhaustive enumeration would overrun its budget; callers may retry
    with sampling and must then flag every derived verdict as sampled."""


# the functor memo of the open _memo_scope, None outside one
_MEMO = contextvars.ContextVar("moritakit_functor_memo", default=None)


@contextlib.contextmanager
def _memo_scope():
    """Open the functor memo for one call, as a context manager or a
    decorator: the outermost scope owns a fresh dict and drops it on exit,
    normal or not, and a nested scope reuses the open one.  So nothing is
    cached from one library call to the next."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoized(fn):
    """fn computed once per argument tuple while a _memo_scope is open, and
    as before outside one.  Arguments are keyed by value (modules and
    algebras cache their hash) or by identity (TorsionTheory has no __eq__),
    and a key holds its arguments alive.  fn must be pure and its results
    immutable, since every hit shares them."""
    @functools.wraps(fn)
    def memoized(*args):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args)
        key = (fn, *args)
        try:
            return memo[key]
        except KeyError:
            memo[key] = out = fn(*args)
            return out
    return memoized


class _Module:
    """A one-sided module: one action matrix per algebra basis vector.
    LeftModule and RightModule differ only in which way products act."""

    __slots__ = ("algebra", "dim", "action", "_hash")
    _hash_tag = ()

    def __init__(self, algebra: Algebra, dim: int, action: Sequence[Matrix]):
        _check_action_shape(algebra, dim, action)
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)

    def action_of(self, a_vec: Sequence) -> Matrix:
        return _combination(self.algebra.field, a_vec, self.action, self.dim)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.algebra == other.algebra
            and self.dim == other.dim
            and self.action == other.action
        )

    def __hash__(self) -> int:
        # cached: the object is immutable, and an object made without
        # __init__ fills the slot on first use
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(self._hash_tag + (self.algebra, self.dim, self.action))
            return h

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim {self.dim} over {self.algebra!r})"


class LeftModule(_Module):
    __slots__ = ()


class RightModule(_Module):
    __slots__ = ()
    _hash_tag = ("right",)


class Bimodule:
    """Left module over one algebra, right module over another, with
    commuting actions."""

    __slots__ = ("left_algebra", "right_algebra", "dim", "left_action", "right_action",
                 "_hash", "_left")

    def __init__(self, left_algebra, right_algebra, dim, left_action, right_action):
        _check_action_shape(left_algebra, dim, left_action)
        _check_action_shape(right_algebra, dim, right_action)
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_action = tuple(left_action)
        self.right_action = tuple(right_action)

    def left_module(self) -> LeftModule:
        # one object per bimodule, so that a memo key hashes it once
        try:
            return self._left
        except AttributeError:
            self._left = m = LeftModule(self.left_algebra, self.dim, self.left_action)
            return m

    def right_module(self) -> RightModule:
        return RightModule(self.right_algebra, self.dim, self.right_action)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bimodule)
            and self.left_algebra == other.left_algebra
            and self.right_algebra == other.right_algebra
            and self.dim == other.dim
            and self.left_action == other.left_action
            and self.right_action == other.right_action
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.left_algebra, self.right_algebra, self.dim,
                                   self.left_action, self.right_action))
            return h

    def __repr__(self) -> str:
        return f"Bimodule(dim {self.dim}, {self.left_algebra!r} / {self.right_algebra!r})"


def _check_action_shape(algebra: Algebra, dim: int, action) -> None:
    if dim < 0:
        raise ValueError("negative dimension")
    if len(action) != algebra.dim:
        raise ValueError(f"{len(action)} action matrices for an algebra of dim {algebra.dim}")
    for i, m in enumerate(action):
        if m.rows != dim or m.cols != dim:
            raise ValueError(f"action matrix {i} is {m.rows}x{m.cols}, want {dim}x{dim}")


def validate_module(m: Union[LeftModule, RightModule, Bimodule]) -> list:
    """Unit and multiplicativity laws; for bimodules also commutation.
    Returns a list of failure strings, empty exactly when m is a module.

    The algebras must pass validate_algebra.  rho(e_i) rho(e_j) = rho(e_i e_j)
    (the other order for a right module) is checked for i in
    Algebra.generator_indices and every j: the a with rho(a) rho(b) = rho(ab)
    for all b form a subspace holding 1 and, by associativity, g.a for each
    such g, so all of A.  Commutation is checked on pairs of generators.
    """
    if isinstance(m, Bimodule):
        report = [f"left {s}" for s in validate_module(m.left_module())]
        report += [f"right {s}" for s in validate_module(m.right_module())]
        for i in m.left_algebra.generator_indices():
            for j in m.right_algebra.generator_indices():
                if (m.left_action[i] @ m.right_action[j]) != (m.right_action[j] @ m.left_action[i]):
                    report.append(f"left action {i} does not commute with right action {j}")
        return report
    alg = m.algebra
    report = []
    if m.action_of(alg.unit) != Matrix.identity(alg.field, m.dim):
        report.append("unit does not act as the identity")
    for i in alg.generator_indices():
        for j in range(alg.dim):
            want = m.action_of(alg.mul[i][j])
            if isinstance(m, LeftModule):
                got = m.action[i] @ m.action[j]
            else:
                got = m.action[j] @ m.action[i]
            if got != want:
                report.append(f"action law fails at basis pair ({i}, {j})")
    return report


def regular_module(a: Algebra) -> LeftModule:
    return LeftModule(a, a.dim, [a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim)])


def regular_bimodule(a: Algebra) -> Bimodule:
    return Bimodule(a, a, a.dim, a._basis_left_mats(), a._basis_right_mats())


def direct_sum(a: LeftModule, b: LeftModule) -> LeftModule:
    """a + b, block diagonal actions: the split extension middle_term(a, b, 0)."""
    return middle_term(a, b, (a.algebra.field.zero,) * (a.algebra.dim * a.dim * b.dim))


class Submodule:
    """An action-stable subspace of a LeftModule; stability is asserted
    under the algebra's generators, since a subspace stable under them is
    stable under the subalgebra they generate."""

    __slots__ = ("parent", "basis")

    def __init__(self, parent: LeftModule, basis: Basis):
        if basis.ambient_dim != parent.dim:
            raise ValueError("submodule basis in the wrong ambient space")
        f = parent.algebra.field
        rows = list(basis.vectors)
        for g in parent.algebra.generator_indices():
            rows += _dot_products(f, basis.vectors, parent.action[g].entries)
        if len(_pivot_rows(f, rows, parent.dim)[1]) != basis.dim:
            raise ValueError("subspace is not action-stable")
        self.parent = parent
        self.basis = basis

    @classmethod
    def _of(cls, parent: LeftModule, basis: Basis) -> "Submodule":
        """A Submodule on a basis that is stable by construction, such as a
        sum of cyclic submodules: no stability test."""
        sub = object.__new__(cls)
        sub.parent = parent
        sub.basis = basis
        return sub

    @property
    def dim(self) -> int:
        return self.basis.dim

    def quotient(self) -> tuple:
        """parent / self with its projection matrix, on the stability the
        constructor asserted."""
        q = quotient_structure(self.basis)
        mats = [q.projection @ act.pick_cols(q.nonpivots) for act in self.parent.action]
        return LeftModule(self.parent.algebra, q.dim, mats), q.projection

    def as_module(self) -> LeftModule:
        mats = [self.basis.coords_matrix((act.apply(v) for v in self.basis.vectors),
                                         "submodule is not stable under the action")
                for act in self.parent.action]
        return LeftModule(self.parent.algebra, self.dim, mats)

    def __eq__(self, other) -> bool:
        return isinstance(other, Submodule) and self.parent == other.parent and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.parent, self.basis))

    def __repr__(self) -> str:
        return f"Submodule(dim {self.dim} of dim {self.parent.dim})"


def quotient_module(m: LeftModule, sub: Basis) -> tuple:
    """M / span(sub) with its projection matrix; sub must be stable."""
    return Submodule(m, sub).quotient()


def annihilator(m: LeftModule, vectors: Sequence[Sequence]) -> Submodule:
    """Largest submodule killed by every algebra element in the span of
    vectors (each given in algebra coordinates)."""
    rows = tuple(r for v in vectors for r in m.action_of(v).entries)
    return Submodule(m, kernel_basis(Matrix._of(m.algebra.field, rows, m.dim)))


def ideal_action_image(ideal: Ideal, m: LeftModule) -> Submodule:
    """The submodule I.M spanned by a.x for a in the ideal, x in M."""
    if ideal.algebra != m.algebra:
        raise ValueError("ideal and module over different algebras")
    vecs = [col for v in ideal.basis.vectors for col in m.action_of(v).columns()]
    return Submodule(m, Basis.span(m.algebra.field, m.dim, vecs))


class HomBasis:
    """Canonical basis of the space of module maps source -> target.

    The basis lives in vectorized (row-major) coordinates and is in RREF,
    so coords() can read coefficients directly off the pivot positions.

    endomorphisms, when given, returns the space of the same kind from
    source to itself: End(source) for hom_space, its identity-degree part
    for a graded component.  An invertible f in this space makes g |-> f g
    a bijection from that space onto this one, so unequal dimensions
    prove there is none (_invertible_proof).
    """

    __slots__ = ("source", "target", "basis", "endomorphisms", "_mats")

    def __init__(self, source: LeftModule, target: LeftModule, basis: Basis,
                 endomorphisms: Optional[Callable[[], "HomBasis"]] = None):
        self.source = source
        self.target = target
        self.basis = basis
        self.endomorphisms = endomorphisms
        self._mats = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def matrices(self) -> tuple:
        if self._mats is None:
            self._mats = tuple(self._reshape(v) for v in self.basis.vectors)
        return self._mats

    def _reshape(self, vec: tuple) -> Matrix:
        rows, cols = self.target.dim, self.source.dim
        ent = [vec[r * cols : (r + 1) * cols] for r in range(rows)]
        return Matrix(self.source.algebra.field, ent, cols=cols)

    @staticmethod
    def vectorize(f: Matrix) -> tuple:
        return tuple(x for row in f.entries for x in row)

    def coords(self, f: Matrix) -> Optional[tuple]:
        return self.basis.coords(self.vectorize(f))

    def coords_matrix(self, maps, broken: str) -> Matrix:
        """Basis.coords_matrix of the vectorized maps."""
        return self.basis.coords_matrix((self.vectorize(f) for f in maps), broken)

    def from_coords(self, coeffs: Sequence) -> Matrix:
        return self._reshape(self.basis.from_coords(coeffs))


@_memoized
def hom_space(source: LeftModule, target: LeftModule) -> HomBasis:
    """Solve the intertwining equations for all maps source -> target.

    A map is a (target.dim x source.dim) matrix F with
    target.action[g] @ F = F @ source.action[g] for every algebra generator
    g (Algebra.generator_indices): the a with a.F = F.a form a unital
    subalgebra, so one holding the generators is all of A.  The maps are
    the kernel of the _intertwiners rows, so a 1-dim algebra, which has no
    generators, leaves every linear map.
    """
    if source.algebra != target.algebra:
        raise ValueError("hom between modules over different algebras")
    pairs = [(source.action[g], target.action[g]) for g in source.algebra.generator_indices()]
    rows = _intertwiners(source.dim, target.dim, pairs)
    return HomBasis(source, target, sparse_kernel_basis(source.algebra.field, rows, source.dim * target.dim),
                    functools.partial(hom_space, source, source))


def _intertwiners(sd: int, td: int, action_pairs) -> list:
    """Sparse rows {column: value} of F |-> (At @ F - F @ As) over the
    pairs (As, At), F a (td x sd) matrix read row-major: row (pair, r, c)
    is sum_k At[r][k] F[k][c] - sum_k F[r][k] As[k][c], from the nonzeros
    of row r of At and column c of As.  Hom is their kernel (hom_space,
    bimodule_hom_space), tensor relations their span (tensor_over), and
    B^1 the span of their columns (extension_space)."""
    rows = []
    for mat_s, mat_t in action_pairs:
        s_cols = [[(k, a) for k, a in enumerate(col) if a] for col in zip(*mat_s.entries)]
        t_rows = [[(k * sd, a) for k, a in enumerate(row) if a] for row in mat_t.entries]
        for r, t_row in enumerate(t_rows):
            for c, s_col in enumerate(s_cols):
                row = {k + c: a for k, a in t_row}
                for k, a in s_col:
                    row[r * sd + k] = row.get(r * sd + k, 0) - a
                rows.append(row)
    return rows


@_memoized
def hom_module(bim: Bimodule, x: LeftModule) -> tuple:
    """Hom over the left algebra from a bimodule into a module.

    For an (R, T)-bimodule A and a left R-module X, Hom_R(A, X) is a left
    T-module by (t.f)(a) = f(a.t).

    Returns:
        (module, hom) where module is the left T-module on the hom basis
        coordinates (hom_structure) and hom is the underlying HomBasis.
    """
    if bim.left_algebra != x.algebra:
        raise ValueError("bimodule's left algebra does not act on the target module")
    hom = hom_space(bim.left_module(), x)
    return hom_structure(bim, hom), hom


def hom_structure(bim: Bimodule, hom: HomBasis) -> LeftModule:
    """The left T-module on the coordinates of hom = Hom_R(A, X), for the
    (R, T)-bimodule A: t acts as f |-> f(- . t)."""
    mats = [hom.coords_matrix((fmat @ ra for fmat in hom.matrices),
                              "hom space is not stable under the right action")
            for ra in bim.right_action]
    return LeftModule(bim.right_algebra, hom.dim, mats)


class TensorProduct:
    """A balanced tensor product M (x)_A N of a bimodule M and a left module
    or bimodule N, presented as a quotient of the raw product space."""

    __slots__ = (
        "middle",
        "left_factor",
        "right_factor",
        "relations",
        "quotient",
        "left_algebra",
        "left_action",
        "right_algebra",
        "right_action",
    )

    def __init__(self, middle, left_factor, right_factor, relations, quotient,
                 left_algebra, left_action, right_algebra, right_action):
        self.middle = middle
        self.left_factor = left_factor
        self.right_factor = right_factor
        self.relations = relations
        self.quotient = quotient
        self.left_algebra = left_algebra
        self.left_action = left_action
        self.right_algebra = right_algebra
        self.right_action = right_action

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def projection(self) -> Matrix:
        return self.quotient.projection

    def pure_tensor(self, mvec: Sequence, nvec: Sequence) -> tuple:
        """The computed coordinates of m (x) n: the projection of the raw
        vector with a*b at (i, j), summed and reduced by apply."""
        return self.projection.apply([a * b for a in mvec for b in nvec])

    def as_left_module(self) -> LeftModule:
        return LeftModule(self.left_algebra, self.dim, self.left_action)

    def as_bimodule(self) -> Bimodule:
        if self.right_action is None:
            raise ValueError("both outer actions are needed for a bimodule")
        return Bimodule(self.left_algebra, self.right_algebra, self.dim, self.left_action, self.right_action)

    def induced_map(self, target: "TensorProduct", f_left: Matrix, f_right: Matrix) -> Matrix:
        """The map of computed tensor spaces sending m (x) n to
        f_left(m) (x) f_right(n); callers guarantee balance."""
        return kron_columns(target.projection, f_left, f_right, self.quotient.nonpivots)


def kron_columns(proj: Matrix, a: Matrix, b: Matrix, cols: Sequence[int]) -> Matrix:
    """proj @ kron(a, b) at the given columns, no Kronecker product formed.
    In left-factor-major indexing, column j*b.cols+l of kron(a, b) has
    a[i][j] b[k][l] at row i*b.rows+k: only the picked columns are written
    out, from the nonzeros of a[:, j] and b[:, l], and multiplied by proj."""
    f = proj.field
    a_cols = [[(i * b.rows, x) for i, x in enumerate(col) if x] for col in a.columns()]
    b_cols = [[(k, y) for k, y in enumerate(col) if y] for col in b.columns()]
    picked = []
    for s in cols:
        j, l = divmod(s, b.cols)
        col = [f.zero] * proj.cols
        for i, x in a_cols[j]:
            for k, y in b_cols[l]:
                col[i + k] = x * y
        picked.append(col)
    return Matrix._of(f, tuple(_dot_products(f, proj.entries, picked)), len(cols))


def tensor_over(middle: Algebra, left, right) -> TensorProduct:
    """Balanced tensor product over the middle algebra.

    Args:
        middle: the algebra being tensored over.
        left: a Bimodule whose right algebra is middle (its left algebra
            descends to the product).
        right: LeftModule over middle, or a Bimodule whose left algebra is
            middle (its right algebra descends).

    The raw basis is (i, j) |-> i*dim(right)+j; the balancing relations
    (m.a) (x) n - m (x) (a.n) are the _intertwiners rows of the pairs
    (N_a, M_a^T), as (M (x) N)* = Hom_A(N, M*), for the generators a of
    middle only, since the relations of ab lie in those of a plus those of
    b; the computed basis is the non-pivot coordinate set of their echelon
    form.  The outer actions are projection @ kron(rho, I) (or
    kron(I, rho)) at those columns, by kron_columns.
    """
    if not isinstance(left, Bimodule):
        raise ValueError(f"left factor must be a Bimodule, got {type(left).__name__}")
    if left.right_algebra != middle:
        raise ValueError("left factor's right algebra is not the middle algebra")
    if isinstance(right, Bimodule):
        if right.left_algebra != middle:
            raise ValueError("right factor's left algebra is not the middle algebra")
        right_left_action = right.left_action
    elif isinstance(right, LeftModule):
        if right.algebra != middle:
            raise ValueError("right factor is not a left module over the middle algebra")
        right_left_action = right.action
    else:
        raise ValueError(f"right factor must be a LeftModule or Bimodule, got {type(right).__name__}")

    f = middle.field
    m, n = left.dim, right.dim
    pairs = [(right_left_action[a], left.right_action[a].transpose()) for a in middle.generator_indices()]
    relations = sparse_span(f, _intertwiners(n, m, pairs), m * n)
    quot = quotient_structure(relations)

    eye_n = Matrix.identity(f, n)
    left_action = tuple(kron_columns(quot.projection, act, eye_n, quot.nonpivots)
                        for act in left.left_action)
    right_algebra = right_action = None
    if isinstance(right, Bimodule):
        right_algebra = right.right_algebra
        eye_m = Matrix.identity(f, m)
        right_action = tuple(kron_columns(quot.projection, eye_m, act, quot.nonpivots)
                             for act in right.right_action)
    return TensorProduct(middle, left, right, relations, quot,
                         left.left_algebra, left_action, right_algebra, right_action)


def cyclic_submodule(m: LeftModule, v: Sequence) -> Basis:
    """The submodule generated by v, as one span of its images under the
    basis action matrices: the span holds v, since the unit acts as the
    identity, and it is stable, since each product of two basis elements is
    a combination of basis elements.  (So m must satisfy the module laws;
    validate_module checks them.)"""
    return Basis.span(m.algebra.field, m.dim, [act.apply(v) for act in m.action])


def _projective_points(field, n: int):
    """One nonzero vector of field^n per line, none for n = 0: first nonzero coordinate 1."""
    scalars = [field.of_int(t) for t in range(field.p)] if n else []
    for lead in range(n):
        head = (field.zero,) * lead + (field.one,)
        for tail in itertools.product(scalars, repeat=n - lead - 1):
            yield head + tail


def submodule_lattice(m: LeftModule, budget: int = DEFAULT_LATTICE_BUDGET) -> list:
    """Every submodule of m exactly once, ordered by (dim, RREF vectors).

    A cover walk: each projective point v of m is closed once to C(v);
    then from 0, every submodule L is joined with each C(v) whose point v
    vanishes on L's pivot coordinates.  This is exact: a submodule X above
    L holds some x outside L, and x reduced by L's RREF and rescaled is
    such a point w, with L < L + C(w) <= X, so a chain of joins climbs from
    0 to X.

    Cost: one span per projective point, (p**dim - 1)/(p - 1) of them,
    then one span per (submodule L, projective point of m/L).  Requires
    points_fit(field, dim, budget) (over Q, dim 0); raises BudgetExceeded otherwise.
    """
    field = m.algebra.field
    if not points_fit(field, m.dim, budget):
        raise BudgetExceeded(f"{field!r}^{m.dim} exceeds submodule budget {budget}")
    # the closures, grouped by their points' support bitmasks
    by_support = {}
    for v in _projective_points(field, m.dim):
        support = sum(1 << i for i, c in enumerate(v) if c)
        by_support.setdefault(support, set()).add(cyclic_submodule(m, v))
    zero = Basis.zero(field, m.dim)
    found = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for low in frontier:
            free = (1 << m.dim) - 1 - sum(1 << p for p in low.pivots)
            joins = set()
            support = free
            while support:  # every nonzero submask of free
                joins.update(by_support.get(support, ()))
                support = (support - 1) & free
            for cyc in joins:
                join = basis_sum(low, cyc)
                if join not in found:
                    found.add(join)
                    fresh.append(join)
        frontier = fresh
    return [Submodule._of(m, b) for b in sorted(found, key=lambda b: (b.dim, b.vectors))]


def is_simple(m: LeftModule) -> bool:
    """len(submodule_lattice(m)) == 2 without the walk: m is simple iff it
    is nonzero and each projective point generates all of it, since every
    nonzero vector is a multiple of one.  The points are closed in
    submodule_lattice's order until one generates a proper submodule, so a
    non-simple m usually stops at the first.  Over GF(p) only."""
    return m.dim > 0 and all(cyclic_submodule(m, v).dim == m.dim
                             for v in _projective_points(m.algebra.field, m.dim))


def enumerate_submodules(m: LeftModule, budget: int = DEFAULT_ENUM_BUDGET) -> list:
    """submodule_lattice under the oracles' smaller default budget."""
    return submodule_lattice(m, budget)


def sample_submodules(m: LeftModule, samples: int, seed: int) -> list:
    """0, m and the closures of seeded random one- or two-vector sets,
    ordered like submodule_lattice."""
    rng = random.Random(seed)
    f = m.algebra.field
    found = {Basis.zero(f, m.dim), Basis.full(f, m.dim)}
    acts = [act.apply for act in m.action]
    for _ in range(samples):
        gens = [tuple(random_scalar(f, rng) for _ in range(m.dim))
                for _ in range(rng.choice((1, 1, 2)))]
        found.add(closure(Basis.span(f, m.dim, gens), acts))
    return [Submodule(m, b) for b in sorted(found, key=lambda b: (b.dim, b.vectors))]


def submodule_supply(m: LeftModule, budget: int, samples: Optional[int], seed: int) -> tuple:
    """(subs, exhaustive): every submodule of m when the cover walk fits
    budget, else the samples of sample_submodules, with exhaustive False.
    With samples None the BudgetExceeded propagates instead."""
    try:
        return submodule_lattice(m, budget), True
    except BudgetExceeded:
        if samples is None:
            raise
        return sample_submodules(m, samples, seed), False


def extension_space(s: LeftModule, t: LeftModule) -> Basis:
    """A complement of B^1 in Z^1, a copy of Ext^1(T, S).

    Z^1 is the space of derivations f: A -> Hom_k(T, S), with
    f(ab) = rho_S(a) f(b) + f(a) rho_T(b), vectorized as f(e_0), f(e_1), ...
    over the algebra basis, each an (s x t) block read row-major: one
    sparse_kernel_basis, with one sparse row of nonzero terms per equation
    (g, j, r, c) for a generator e_g (Algebra.generator_indices) and any
    e_j, plus the rows of f(1) = 0.  Given f(1) = 0, the a for which the
    rule holds for every b form a unital subalgebra (f(aa'b) expands
    through a'b, then b), so one holding the generators is all of A, and
    the kernel, with its canonical basis, is Z^1.  B^1, the image of
    h |-> (rho_S(a) h - h rho_T(a))_a, is spanned by the columns of the
    _intertwiners rows of every basis pair, row (a, r, c) being
    coordinate a*block + r*t + c.  Each f in Z^1 is reduced by B^1's RREF,
    so the span is a complement.  f and f + inner give isomorphic middle
    terms (middle_term), and the zero class gives S + T (direct_sum)."""
    if s.algebra != t.algebra:
        raise ValueError("extension between modules over different algebras")
    alg = s.algebra
    f = alg.field
    td = t.dim
    block = s.dim * td
    nvars = alg.dim * block
    units = [(k, u) for k, u in enumerate(alg.unit) if u]
    rows = [{k * block + at: u for k, u in units} for at in range(block)]
    for i, j in itertools.product(alg.generator_indices(), range(alg.dim)):
        for r, c in itertools.product(range(s.dim), range(td)):
            row = {}
            terms = [(j * block + q * td + c, s.action[i].entries[r][q]) for q in range(s.dim)]
            terms += [(i * block + r * td + q, t.action[j].entries[q][c]) for q in range(td)]
            terms += [(k * block + r * td + c, -x) for k, x in enumerate(alg.mul[i][j])]
            for at, x in terms:
                if x:
                    row[at] = row.get(at, 0) + x
            rows.append(row)
    cocycles = sparse_kernel_basis(f, rows, nvars)
    columns = [{} for _ in range(block)]
    for at, row in enumerate(_intertwiners(td, s.dim, zip(t.action, s.action))):
        for q, x in row.items():
            columns[q][at] = x
    inner = sparse_span(f, columns, nvars)
    return Basis.span(f, nvars, [inner.reduce(z) for z in cocycles.vectors])


def middle_term(s: LeftModule, t: LeftModule, cocycle: Sequence) -> LeftModule:
    """The extension of T by S that a derivation of extension_space gives:
    k^s + k^t with a acting as [[rho_S(a), f(a)], [0, rho_T(a)]]."""
    if s.algebra != t.algebra:
        raise ValueError("extension of modules over different algebras")
    f = s.algebra.field
    block = s.dim * t.dim
    pad = (f.zero,) * s.dim
    mats = []
    for i, (a, b) in enumerate(zip(s.action, t.action)):
        fa = tuple(cocycle[i * block:(i + 1) * block])
        rows = [row + fa[r * t.dim:(r + 1) * t.dim] for r, row in enumerate(a.entries)]
        mats.append(Matrix(f, rows + [pad + row for row in b.entries], cols=s.dim + t.dim))
    return LeftModule(s.algebra, s.dim + t.dim, mats)


class IsoResult:
    """Outcome of an isomorphism search.

    map_ is the witness when found: an invertible intertwiner, or the pair
    (u, v) of a context isomorphism.  When map_ is None, exhaustive
    distinguishes a proved 'none' from a sampled 'not found'.

    An exhaustive module search (_search_invertible) separates existence
    from the witness, and computes each on its first read: found by
    `prove`, the cheapest exact proof (None when it cannot decide), and
    map_ by `walk`, the lexicographic sweep, which also settles found when
    it is read first or when prove could not decide.  So a reader of found
    alone, such as catalog dedup, walks only when no cheap proof applies,
    and a reader of map_ first pays the walk and nothing else.
    """

    __slots__ = ("exhaustive", "_map", "_found", "_prove", "_walk")

    def __init__(self, map_: Union[Matrix, tuple, None], exhaustive: bool):
        self.exhaustive = exhaustive
        self._map = map_
        self._found = map_ is not None
        self._prove = self._walk = None

    @classmethod
    def _deferred(cls, prove, walk) -> "IsoResult":
        """An exhaustive result whose found and map_ are computed when read."""
        res = cls(None, True)
        res._found, res._prove, res._walk = None, prove, walk
        return res

    @property
    def map_(self) -> Union[Matrix, tuple, None]:
        if self._walk is not None:
            self._map, self._walk = self._walk(), None
            self._found = self._map is not None
        return self._map

    @property
    def found(self) -> bool:
        if self._found is None:
            self._found = self._prove()
            if self._found is None:
                return self.map_ is not None
            if not self._found:
                self._walk = None  # proved: map_ is None
        return self._found

    @property
    def proven_none(self) -> bool:
        return not self.found and self.exhaustive

    def __repr__(self) -> str:
        if self.found:
            return "IsoResult(found)"
        return "IsoResult(none, exhaustive)" if self.exhaustive else "IsoResult(not found, sampled)"


def iso_invariant(m: LeftModule) -> tuple:
    """(dim, rank of each basis action, dim End(m)): equal for isomorphic
    modules over the same algebra basis, since N = P M P^-1 conjugates each
    action matrix and End(N) = P End(M) P^-1.  Different keys therefore
    prove two modules non-isomorphic."""
    return m.dim, tuple(rank(a) for a in m.action), hom_space(m, m).dim


def sum_invariant(s: LeftModule, t: LeftModule, key_s: tuple, key_t: tuple) -> tuple:
    """iso_invariant of direct_sum(s, t), or of direct_sum(t, s), from the
    summands' keys: the dims add, and so do the ranks, as the actions are
    block diagonal; End(S + T) = End S + Hom(S, T) + Hom(T, S) + End T.
    Two hom solves of dim S * dim T unknowns each, no rank."""
    return (key_s[0] + key_t[0], tuple(a + b for a, b in zip(key_s[1], key_t[1])),
            key_s[2] + key_t[2] + hom_space(s, t).dim + hom_space(t, s).dim)


def is_isomorphic(m: LeftModule, n: LeftModule) -> IsoResult:
    """Search the hom space for an invertible map.

    Policy: dimension mismatch is a proven 'none'; the identity matrix is
    tried first when it lies in the hom space; then _search_invertible,
    whose miss is a proof only when that search was exhaustive.  The
    exhaustive search decides found by dim Hom(m, n) against dim End(m),
    a seeded draw or a common kernel where one applies, and its map_ is
    the first invertible map in lexicographic coefficient order, computed
    when read, so the witness depends neither on the pruning nor on the
    draws.
    """
    if m.algebra != n.algebra:
        raise ValueError("isomorphism search across different algebras")
    field = m.algebra.field
    if m.dim != n.dim:
        return IsoResult(None, True)
    if m.dim == 0:
        return IsoResult(Matrix.zeros(field, 0, 0), True)
    hom = hom_space(m, n)
    ident = Matrix.identity(field, m.dim)
    if hom.coords(ident) is not None:
        return IsoResult(ident, True)
    return _search_invertible(hom)


def _invertible_proof(hom: HomBasis) -> Optional[bool]:
    """Whether the hom space holds an invertible map, by the cheapest exact
    proof over GF(p), in this order: False when its dimension differs from
    that of hom.endomorphisms() (a memo lookup inside a catalog build);
    True when one of DEFAULT_ISO_PROOF_DRAWS draws from seed 0 is
    invertible; False when its maps share a nonzero kernel (the root test
    of exactlin._invertible_walk, one elimination of the stacked maps);
    None when none of these holds and only the walk can decide."""
    if hom.endomorphisms is not None and hom.endomorphisms().dim != hom.dim:
        return False
    field, maps, n = hom.source.algebra.field, hom.matrices, hom.source.dim
    draws = exactlin._invertible_draws(field, maps, None, DEFAULT_ISO_PROOF_DRAWS, random.Random(0))
    if next(draws, None):
        return True
    if len(_pivot_rows(field, [r for m in maps for r in m.entries], n)[1]) < n:
        return False
    return None


def _search_invertible(hom: HomBasis) -> IsoResult:
    """An invertible member of the hom space.

    Where the coefficient points fit DEFAULT_ISO_EXHAUST, the result is
    exhaustive and deferred (IsoResult._deferred): found is decided by
    _invertible_proof where it can (a Hom dimension, a seeded draw or a
    common kernel), else by the walk; map_ is always the first invertible
    map of the lexicographic sweep, whose singular subtrees are skipped,
    computed when read.  Past the budget (over Q, always)
    invertible_search draws DEFAULT_ISO_SAMPLES members from seed 0 at
    once, and a miss proves nothing.
    """
    if hom.dim == 0:
        return IsoResult(None, True)
    field = hom.source.algebra.field

    def search():
        return invertible_search(field, hom.matrices, lambda c, m: m, DEFAULT_ISO_EXHAUST,
                                 DEFAULT_ISO_SAMPLES, random.Random(0))

    if not points_fit(field, hom.dim, DEFAULT_ISO_EXHAUST):
        return IsoResult(*search())
    return IsoResult._deferred(lambda: _invertible_proof(hom), lambda: search()[0])
