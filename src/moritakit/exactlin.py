"""Exact linear algebra over GF(p) and the rationals.

Everything downstream (algebras, modules, tensor products, the verification
engine) reduces to the operations in this module.  Scalars are plain Python
ints in [0, p) for GF(p) and fractions.Fraction for the rationals; there is
no floating point anywhere, so comparisons are exact equality.

Reduced row echelon form is the canonical form throughout: a Basis stores
the RREF rows of the subspace it spans, which makes subspace equality plain
entrywise equality and makes every derived construction (kernels, quotients,
hom spaces, tensor quotients) deterministic.

Kernels, solving, ranks, inverses and spans run one elimination kernel per
field on sparse rows {column: value}: fraction-free integer Gauss-Jordan
over Q, with Fractions made only for the final pivot rows, and inline % p
over GF(p).  _pivot_rows is the entry for dense rows and makes each row
sparse once; the hom, tensor and Ext systems write their equations as
sparse rows and go in through sparse_kernel_basis and sparse_span.  The RREF
of a matrix is unique, so the kernels' output is the same canonical form
any exact Gauss-Jordan gives; the textbook loop on Field methods is kept in
the tests as their oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]

# Fractions are immutable, so QQ hands out one zero and one one; the Q
# kernel skips entries that are this zero by identity before testing the rest.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """A prime field GF(p) with p < 2**16, or the rationals (p is None)."""

    __slots__ = ("p",)

    def __init__(self, p: Optional[int] = None):
        if p is not None:
            if not 2 <= p < 2 ** 16:
                raise ValueError(f"prime field order must be in [2, 2**16), got {p}")
            if not _is_prime(p):
                raise ValueError(f"field order {p} is not prime")
        self.p = p

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def zero(self) -> Scalar:
        return 0 if self.p is not None else _Q_ZERO

    @property
    def one(self) -> Scalar:
        return 1 if self.p is not None else _Q_ONE

    def of_int(self, n: int) -> Scalar:
        return n % self.p if self.p is not None else Fraction(n)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p is not None else _Q_ONE / a

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def parse(self, obj) -> Scalar:
        """Read a scalar from workspace JSON: int, or 'a/b' string over Q."""
        if self.p is not None:
            if not isinstance(obj, int) or isinstance(obj, bool):
                raise ValueError(f"GF({self.p}) scalar must be an int, got {obj!r}")
            return obj % self.p
        if isinstance(obj, int) and not isinstance(obj, bool):
            return Fraction(obj)
        if isinstance(obj, str):
            return Fraction(obj)
        raise ValueError(f"rational scalar must be an int or 'a/b' string, got {obj!r}")

    def to_json(self, a: Scalar):
        if self.p is not None:
            return int(a)
        frac = Fraction(a)
        return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.p is not None else "QQ"


QQ = Field.rationals()


# vector helpers; vectors are plain tuples of scalars

def unit_vector(field: Field, n: int, i: int) -> tuple:
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def vec_is_zero(field: Field, v: Sequence[Scalar]) -> bool:
    return all(field.is_zero(a) for a in v)


def random_scalar(field: Field, rng) -> Scalar:
    """One seeded draw: uniform over GF(p), an integer in [-3, 3] over Q."""
    if field.is_prime_field:
        return field.of_int(rng.randrange(field.p))
    return field.of_int(rng.randint(-3, 3))


def points_fit(field: Field, d: int, budget: int) -> bool:
    """Whether field^d has at most budget points: p**d over GF(p); over Q
    one for d = 0, else infinitely many.  So budget 0 always samples."""
    return field.p ** d <= budget if field.is_prime_field else (d == 0 and budget >= 1)


def invertible_search(field: Field, maps: Sequence[Matrix], accept: Callable, exhaust: int,
                      samples: int, rng, base: Optional[Matrix] = None) -> tuple:
    """(hit, exhaustive): the first hit of accept(c, matrix) over the
    tuples c whose member base + sum c_i maps[i] (base None: zero) of n x n
    matrices is invertible, or None; accept() sees only invertible members.

    When points_fit(field, len(maps), exhaust), _invertible_walk offers
    every such tuple in lexicographic order, pruned on one kernel chain, so
    a miss is a proof; otherwise `samples` draws of random_scalar from the
    caller's rng are offered, and a miss proves nothing.  Each member is
    formed once, zero coefficients skipped.
    """
    exhaustive = points_fit(field, len(maps), exhaust)
    members = (_invertible_walk(field, maps, base) if exhaustive
               else _invertible_draws(field, maps, base, samples, rng))
    for coeffs, total in members:
        hit = accept(coeffs, Matrix._of(field, total, maps[0].rows))
        if hit is not None:
            return hit, exhaustive
    return None, exhaustive


def invertible_combinations(field: Field, maps: Sequence[Matrix]):
    """Every coefficient tuple over GF(p) whose combination sum c_i maps[i]
    is invertible, in lexicographic order (_invertible_walk from zero)."""
    return (coeffs for coeffs, _ in _invertible_walk(field, maps, None))


def _invertible_draws(field: Field, maps: Sequence[Matrix], base: Optional[Matrix], samples: int, rng):
    """Yield (c, rows of base + sum c_i maps[i]) for each of `samples`
    seeded draws c whose member is invertible, drawing lazily."""
    n = maps[0].rows
    start = ((field.zero,) * n,) * n if base is None else base.entries
    for _ in range(samples):
        coeffs = [random_scalar(field, rng) for _ in maps]
        total = start
        for c, m in zip(coeffs, maps):
            if c:
                total = _plus_multiple(field.p, total, c, m.entries)
        if Matrix._of(field, total, n).is_invertible():
            yield coeffs, total


def _invertible_walk(field: Field, maps: Sequence[Matrix], base: Optional[Matrix]):
    """Yield (c, rows of base + sum c_i maps[i]) over GF(p), in
    lexicographic order of c, for every tuple whose member is invertible.

    A depth-first walk over the coordinates.  At depth j with partial sum
    P, every completion is P + Q, Q in the span of maps[j:], and agrees
    with P on K_j, the common kernel of maps[j:].  So when P is not
    injective on K_j the whole subtree is singular and is skipped.  K_j
    grows with j, and at a leaf it is the whole space, where the same test
    is invertibility: one kernel chain decides every member.
    """
    k, p, n = len(maps), field.p, maps[0].rows
    mats = [m.entries for m in maps]
    kernels = _common_kernels(field, mats, n)
    root = ((0,) * n,) * n if base is None else base.entries
    # the root's P is the base; a zero one passes exactly when K_0 is 0
    if kernels[0] if base is None else not _injective_on(field, root, kernels[0]):
        return

    def walk(j, total, prefix):
        # invariant: total is injective on kernels[j]
        if j == k:
            yield prefix, total
            return
        h = mats[j]
        for c in range(p):
            nxt = total if c == 0 else _plus_multiple(p, total, c, h)
            # where the kernel did not grow, total's test carries over
            if len(kernels[j + 1]) > len(kernels[j]) and not _injective_on(field, nxt, kernels[j + 1]):
                continue
            yield from walk(j + 1, nxt, prefix + (c,))

    yield from walk(0, root, ())


def _plus_multiple(p: Optional[int], total: tuple, c: Scalar, h: tuple) -> tuple:
    """Rows of total + c h: mod p over GF(p); over Q (p None) h's zeros skipped."""
    if p is None:
        return tuple([tuple([a + c * b if b else a for a, b in zip(rt, rh)]) for rt, rh in zip(total, h)])
    return tuple([tuple([(a + c * b) % p for a, b in zip(rt, rh)]) for rt, rh in zip(total, h)])


def _combination(field: Field, coeffs: Sequence[Scalar], mats: Sequence[Matrix], n: int) -> Matrix:
    """sum c_i mats[i] of n x n matrices, the rows summed once by
    _plus_multiple, zero coefficients skipped; a lone coefficient 1 gives
    its matrix itself, which is immutable."""
    terms = [(c, m) for c, m in zip(coeffs, mats) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    total = ((field.zero,) * n,) * n
    for c, m in terms:
        total = _plus_multiple(field.p, total, c, m.entries)
    return Matrix._of(field, total, n)


def _common_kernels(field: Field, mats, n: int) -> list:
    """[K_0, ..., K_k]: K_j the basis vectors of the common right kernel of
    mats[j:], intersected from the end, so K_k is the whole space; once
    one is 0 the earlier ones are 0 too."""
    out = [tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])]
    rows = []
    for m in reversed(mats):
        if not out[-1]:
            out.append(())
            continue
        rows, pivots = _pivot_rows(field, rows + list(m), n)  # rows pass unchanged
        at = dict(zip(pivots, rows))
        out.append(tuple([tuple([1 if j == c else -at[j][c] % field.p if j in at else 0
                                 for j in range(n)]) for c in range(n) if c not in at]))
    return out[::-1]


def _injective_on(field: Field, rows, basis) -> bool:
    """Whether the matrix with these rows is injective on the span of the
    independent vectors basis: their images have full rank."""
    return len(_pivot_rows(field, _dot_products(field, basis, rows), len(rows))[1]) == len(basis)


class Matrix:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence[Scalar]], cols: Optional[int] = None):
        rows = len(entries)
        if rows == 0:
            if cols is None:
                raise ValueError("a 0-row matrix needs an explicit column count")
            width = cols
        else:
            width = len(entries[0])
            if cols is not None and cols != width:
                raise ValueError(f"declared {cols} columns, rows have {width}")
        ent = []
        for r in entries:
            if len(r) != width:
                raise ValueError("ragged rows")
            ent.append(tuple(r))
        self.field = field
        self.rows = rows
        self.cols = width
        self.entries = tuple(ent)

    @classmethod
    def _of(cls, field: Field, entries: tuple, cols: int) -> "Matrix":
        """A Matrix on entries that are already a tuple of row tuples, each
        of width cols: no copy and no check, for the results of operations
        that build rows of the right shape themselves."""
        m = object.__new__(cls)
        m.field = field
        m.rows = len(entries)
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [unit_vector(field, n, i) for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._of(field, ((field.zero,) * cols,) * rows, cols)

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence[Scalar]], rows: Optional[int] = None) -> "Matrix":
        if not cols:
            if rows is None:
                raise ValueError("a 0-column matrix needs an explicit row count")
            return cls(field, [()] * rows, cols=0)
        return cls._of(field, tuple(zip(*cols)), len(cols))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        return list(zip(*self.entries)) if self.entries else [()] * self.cols

    def pick_cols(self, idx: Sequence[int]) -> "Matrix":
        """The columns at these indices, in this order: self @ S for S the
        matrix whose columns are the unit vectors e_i, i in idx."""
        return Matrix._of(self.field, tuple([tuple([r[i] for i in idx]) for r in self.entries]),
                          len(idx))

    def transpose(self) -> "Matrix":
        if not self.entries:
            return Matrix._of(self.field, ((),) * self.cols, 0)
        return Matrix._of(self.field, tuple(zip(*self.entries)), self.rows)

    def apply(self, v: Sequence[Scalar]) -> tuple:
        """Matrix-vector product, v being coordinates of the domain."""
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.cols} columns")
        return _dot_products(self.field, [v], self.entries)[0]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ent = _dot_products(self.field, self.entries, other.transpose().entries)
        return Matrix._of(self.field, tuple(ent), other.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        return Matrix._of(f, tuple([tuple([f.add(a, b) for a, b in zip(ra, rb)])
                                    for ra, rb in zip(self.entries, other.entries)]), self.cols)

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix._of(f, tuple([tuple(f.neg(a) for a in r) for r in self.entries]), self.cols)

    def scale(self, c: Scalar) -> "Matrix":
        f = self.field
        return Matrix._of(f, tuple([tuple([f.mul(c, a) for a in r]) for r in self.entries]), self.cols)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and rank(self) == self.rows

    def inverse(self) -> "Matrix":
        """The right half of the pivot rows of [self | I], whose pivots are
        0..n-1 exactly when self is invertible."""
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        aug = hstack(self, Matrix.identity(self.field, n))
        rows, pivots = _pivot_rows(self.field, aug.entries, 2 * n)
        if list(pivots) != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._of(self.field, tuple([r[n:] for r in rows]), n)


def _dot_products(f: Field, rows, cols) -> list:
    """The tuples (r . c for c in cols), one for each r in rows, with one
    path per field: over Q each row's nonzero entries are found once and
    zero products are never formed; over GF(p) each dot product is summed
    at C speed and reduced once."""
    if f.p is None:
        out = []
        for r in rows:
            nz = [(k, a) for k, a in enumerate(r) if a is not _Q_ZERO and a]
            out.append(tuple([sum([a * b for k, a in nz if (b := c[k]) is not _Q_ZERO and b], _Q_ZERO)
                              for c in cols]))
        return out
    p = f.p
    return [tuple([sum(map(mul, r, c)) % p for c in cols]) for r in rows]


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    return Matrix._of(a.field, tuple([ra + rb for ra, rb in zip(a.entries, b.entries)]),
                      a.cols + b.cols)


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form, padded to m's shape: a test entry to the
    kernels (the library reads only pivot rows, from _pivot_rows).

    Returns:
        (R, pivots): R is the RREF of m, pivots the tuple of pivot column
        indices in increasing order.  Rows below the pivot rows are zero.
        One exact kernel per field (_rref_mod_p, _rref_rational); the RREF
        is unique, so both give the same R as any Gauss-Jordan would.
    """
    f = m.field
    rows, pivots = _pivot_rows(f, m.entries, m.cols)
    zero_row = (f.zero,) * m.cols
    return Matrix._of(f, tuple(rows + [zero_row] * (m.rows - len(rows))), m.cols), pivots


def _pivot_rows(f: Field, rows, ncols: int) -> tuple:
    """(nonzero RREF rows of the span of dense rows, pivots): the dense
    entry to the kernels, which makes each row sparse once."""
    return _sparse_pivot_rows(f, [{j: x for j, x in enumerate(r) if x is not _Q_ZERO and x}
                                  for r in rows], ncols)


def _sparse_pivot_rows(f: Field, rows, ncols: int) -> tuple:
    """(dense nonzero RREF rows, pivots) of sparse rows {column: value}
    by f's kernel; values may be zero, and over GF(p) any int."""
    if f.p is None:
        return _rref_rational(rows, ncols)
    return _rref_mod_p(rows, ncols, f.p)


def _rref_mod_p(entries, ncols: int, p: int) -> tuple:
    """RREF over GF(p) on sparse rows {column: value}.  Each input row is
    reduced at the current pivots, scaled to a leading 1 and cleared out of
    the earlier pivot rows; a row update touches only the nonzero (j, b)
    pairs of the pivot row it subtracts."""
    piv = {}  # pivot column -> row with a 1 there and 0 at every other pivot
    for row in entries:
        w = {j: y for j, x in row.items() if (y := x % p)}
        for c in [c for c in w if c in piv]:
            _subtract_mod_p(w, w[c], piv[c], p)
        if not w:
            continue
        lead = min(w)
        if w[lead] != 1:
            inv = pow(w[lead], -1, p)
            w = {j: x * inv % p for j, x in w.items()}
        for r in piv.values():
            a = r.get(lead)
            if a:
                _subtract_mod_p(r, a, w, p)
        piv[lead] = w
    pivots = tuple(sorted(piv))
    rows = []
    for c in pivots:
        dense = [0] * ncols
        for j, x in piv[c].items():
            dense[j] = x
        rows.append(tuple(dense))
    return rows, pivots


def _subtract_mod_p(w: dict, a: int, r: dict, p: int) -> None:
    """w -= a r over GF(p), in place, at r's nonzero entries only."""
    for j, b in r.items():
        x = (w.get(j, 0) - a * b) % p
        if x:
            w[j] = x
        else:
            del w[j]


def _primitive(w: dict) -> dict:
    """w divided by the gcd of its entries (its content)."""
    g = gcd(*w.values())
    return w if g == 1 else {j: x // g for j, x in w.items()}


def _rref_rational(entries, ncols: int) -> tuple:
    """RREF over Q on sparse rows {column: value}, fraction-free: each
    row's denominators are cleared into Python ints, and rows stay
    primitive integer vectors throughout.
    Eliminating column c of w with pivot row r sets w to
    (r[c]/g) w - (w[c]/g) r, g = gcd(r[c], w[c]), touching only r's
    nonzero columns besides the rescale; only the final pivot rows become
    Fractions, x / (pivot entry)."""
    piv = {}  # pivot column -> primitive int row, 0 at every other pivot
    for row in entries:
        den = lcm(*[x.denominator for x in row.values()])
        w = {j: n for j, x in row.items() if (n := x.numerator * (den // x.denominator))}
        if not w:
            continue
        w = _primitive(w)
        for c in [c for c in w if c in piv]:
            w = _eliminate(w, piv[c], c)
        if not w:
            continue
        lead = min(w)
        for c, r in piv.items():
            if lead in r:
                piv[c] = _eliminate(r, w, lead)
        piv[lead] = w
    pivots = tuple(sorted(piv))
    rows = []
    for c in pivots:
        r = piv[c]
        d = r[c]
        dense = [_Q_ZERO] * ncols
        for j, x in r.items():
            dense[j] = Fraction(x, d)
        rows.append(tuple(dense))
    return rows, pivots


def _eliminate(w: dict, r: dict, c: int) -> dict:
    """The primitive part of (r[c]/g) w - (w[c]/g) r, g = gcd(r[c], w[c]):
    w with column c cleared by the integer row r."""
    a, b = r[c], w[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        w = {j: a * x for j, x in w.items()}
    for j, y in r.items():
        x = w.get(j, 0) - b * y
        if x:
            w[j] = x
        else:
            del w[j]
    return _primitive(w) if w else w


def rank(m: Matrix) -> int:
    return len(_pivot_rows(m.field, m.entries, m.cols)[1])


def kernel_basis(m: Matrix) -> "Basis":
    """Canonical basis of the right kernel {x : m@x = 0}."""
    return _kernel(m.field, *_pivot_rows(m.field, m.entries, m.cols), m.cols)


def sparse_kernel_basis(f: Field, rows, ncols: int) -> "Basis":
    """kernel_basis of the matrix with these sparse rows {column: value}."""
    return _kernel(f, *_sparse_pivot_rows(f, rows, ncols), ncols)


def sparse_span(f: Field, rows, ncols: int) -> "Basis":
    """Basis.span of sparse rows {column: value}."""
    red, pivots = _sparse_pivot_rows(f, rows, ncols)
    return Basis(f, ncols, tuple(red), pivots)


def _kernel(f: Field, rows, pivots: tuple, ncols: int) -> "Basis":
    """The kernel of RREF rows with these pivots, in canonical form: the
    span of e_c - sum_i rows[i][c] e_pivots[i] over the free columns c."""
    taken = set(pivots)
    vecs = [{**{p: -r[c] for p, r in zip(pivots, rows) if r[c]}, c: 1}
            for c in range(ncols) if c not in taken]
    red, kernel_pivots = _sparse_pivot_rows(f, vecs, ncols)
    return Basis(f, ncols, tuple(red), kernel_pivots)


def solve(a: Matrix, b: Sequence[Scalar]) -> Optional[tuple]:
    """One solution of a@x = b with free coordinates zero, read off the
    pivot rows of [a | b]; None when b's column is a pivot."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    f = a.field
    rows, pivots = _pivot_rows(f, [r + (x,) for r, x in zip(a.entries, b)], a.cols + 1)
    if a.cols in pivots:
        return None
    x = [f.zero] * a.cols
    for row, p in zip(rows, pivots):
        x[p] = row[a.cols]
    return tuple(x)


class Basis:
    """A subspace of k^n held in canonical form.

    vectors are the nonzero RREF rows of any spanning set, so two Basis
    objects are equal exactly when they span the same subspace.
    """

    __slots__ = ("field", "ambient_dim", "vectors", "pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors: tuple, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.vectors = vectors
        self.pivots = pivots

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Sequence[Sequence[Scalar]]) -> "Basis":
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(f"vector of length {len(v)} in ambient dim {ambient_dim}")
        rows, pivots = _pivot_rows(field, vectors, ambient_dim)
        return cls(field, ambient_dim, tuple(rows), pivots)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Basis":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Basis":
        return cls(field, ambient_dim, tuple(unit_vector(field, ambient_dim, i) for i in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def reduce(self, v: Sequence[Scalar]) -> tuple:
        """Residue of v after eliminating all pivot coordinates: r -= r[c]
        (row of pivot c) at the row's nonzeros, in plain arithmetic, over
        GF(p) with r[c] reduced before its test and r once at the end."""
        p = self.field.p
        r = list(v)
        for vec, c in zip(self.vectors, self.pivots):
            a = r[c] if p is None else r[c] % p
            if a:
                for j, b in enumerate(vec):
                    if b:
                        r[j] -= a * b
        return tuple(r) if p is None else tuple([x % p for x in r])

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        return not any(self.reduce(v))

    def coords(self, v: Sequence[Scalar]) -> Optional[tuple]:
        """Coordinates of v in this basis, or None if v is outside the span."""
        if not self.contains_vector(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def coords_matrix(self, vectors: Iterable[Sequence[Scalar]], broken: str) -> Matrix:
        """The dim x len(vectors) matrix of their coordinates, column by
        column.  Callers pass images that must stay in this span, so a
        vector outside it is a broken invariant: AssertionError(broken)."""
        cols = []
        for v in vectors:
            c = self.coords(v)
            if c is None:
                raise AssertionError(broken)
            cols.append(c)
        return Matrix.from_cols(self.field, cols, rows=self.dim)

    def from_coords(self, coeffs: Sequence[Scalar]) -> tuple:
        f = self.field
        out = [f.zero] * self.ambient_dim
        for c, vec in zip(coeffs, self.vectors):
            if not f.is_zero(c):
                for j, b in enumerate(vec):
                    if b:
                        out[j] = f.add(out[j], f.mul(c, b))
        return tuple(out)

    def contains(self, other: "Basis") -> bool:
        return all(self.contains_vector(v) for v in other.vectors)

    def matrix_cols(self) -> Matrix:
        """Inclusion matrix: ambient_dim x dim, columns are the basis vectors."""
        return Matrix.from_cols(self.field, list(self.vectors), rows=self.ambient_dim)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Basis)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.vectors == other.vectors
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.vectors))

    def __repr__(self) -> str:
        return f"Basis(dim {self.dim} in k^{self.ambient_dim})"


class SubspaceOps(NamedTuple):
    sum: Basis
    intersection: Basis
    equal: bool
    contains: bool


def basis_sum(u: Basis, v: Basis) -> Basis:
    """u + v: u's RREF rows and v's vectors through the field's kernel,
    where u's rows pass without arithmetic (each is already zero at the
    other pivots), so only v's vectors are eliminated."""
    if u.ambient_dim != v.ambient_dim or u.field != v.field:
        raise ValueError("subspaces of different ambient spaces")
    rows, pivots = _pivot_rows(u.field, u.vectors + v.vectors, u.ambient_dim)
    return Basis(u.field, u.ambient_dim, tuple(rows), pivots)


def basis_intersection(u: Basis, v: Basis) -> Basis:
    """Intersection via the kernel of the stacked system [U | -V]."""
    if u.ambient_dim != v.ambient_dim or u.field != v.field:
        raise ValueError("subspaces of different ambient spaces")
    f = u.field
    if u.dim == 0 or v.dim == 0:
        return Basis.zero(f, u.ambient_dim)
    stacked = hstack(u.matrix_cols(), -v.matrix_cols())
    ker = kernel_basis(stacked)
    vecs = [u.matrix_cols().apply(w[: u.dim]) for w in ker.vectors]
    return Basis.span(f, u.ambient_dim, vecs)


def subspace_ops(u: Basis, v: Basis) -> SubspaceOps:
    """Sum, intersection, equality, and containment (v inside u) in one call."""
    return SubspaceOps(
        sum=basis_sum(u, v),
        intersection=basis_intersection(u, v),
        equal=u == v,
        contains=u.contains(v),
    )


def closure(space: Basis, operators: Sequence[Callable]) -> Basis:
    """Smallest subspace containing space and stable under every operator
    (each a linear map of vectors), as a work list: each round spans the
    space with the images of only its RREF rows whose pivots are new.  A
    subspace's pivots are among any superspace's, so those rows span the
    new space modulo the old, whose images are in already; the closure is
    unique, so its Basis is the one that re-spanning every image gives."""
    f, n = space.field, space.ambient_dim
    new = space.vectors
    while new:
        rows, pivots = _pivot_rows(f, list(space.vectors) + [op(v) for op in operators for v in new], n)
        new = [r for r, c in zip(rows, pivots) if c not in space.pivots]
        space = Basis(f, n, tuple(rows), pivots)
    return space


class QuotientStructure(NamedTuple):
    projection: Matrix  # quotient_dim x ambient_dim
    dim: int
    nonpivots: tuple


def quotient_structure(u: Basis) -> QuotientStructure:
    """Projection for k^n / span(u).

    Quotient coordinates are the non-pivot standard coordinates of u's RREF,
    in increasing order, so the projection's columns at nonpivots are the
    identity (the unit vectors there are a section), and the kernel of the
    projection is exactly span(u).  The projection is read
    off the RREF rows: its column j is e_j's residue at the free columns,
    a unit vector for free j and minus the row of pivot j for pivot j.
    """
    f = u.field
    n = u.ambient_dim
    nonpivots = tuple(c for c in range(n) if c not in u.pivots)
    at = dict(zip(u.pivots, u.vectors))
    proj_cols = [tuple([f.neg(x) if (x := at[j][c]) else f.zero for c in nonpivots]) if j in at
                 else tuple([f.one if c == j else f.zero for c in nonpivots]) for j in range(n)]
    projection = Matrix.from_cols(f, proj_cols, rows=len(nonpivots))
    return QuotientStructure(projection, len(nonpivots), nonpivots)
