"""Finite-dimensional associative unital algebras via structure constants.

An Algebra is a field, a dimension, the structure tensor c[i][j] giving the
coordinate vector of e_i * e_j, and a unit vector.  Shape errors raise at
construction; the algebra laws themselves are checked by validate_algebra,
which reports every failing instance rather than stopping at the first.
"""

from __future__ import annotations

from typing import Sequence

from .exactlin import (
    Basis,
    Field,
    Matrix,
    _combination,
    _dot_products,
    _pivot_rows,
    closure,
    quotient_structure,
    unit_vector,
)


class Algebra:
    __slots__ = ("field", "dim", "mul", "unit", "_left_mats", "_right_mats", "_gens", "_hash")

    def __init__(self, field: Field, dim: int, mul: Sequence[Sequence[Sequence]], unit: Sequence):
        if dim < 0:
            raise ValueError("negative dimension")
        if len(mul) != dim:
            raise ValueError(f"mul tensor has {len(mul)} rows for dim {dim}")
        table = []
        for i, row in enumerate(mul):
            if len(row) != dim:
                raise ValueError(f"mul[{i}] has {len(row)} entries for dim {dim}")
            fixed = []
            for j, vec in enumerate(row):
                if len(vec) != dim:
                    raise ValueError(f"mul[{i}][{j}] is a vector of length {len(vec)}, want {dim}")
                fixed.append(tuple(vec))
            table.append(tuple(fixed))
        if len(unit) != dim:
            raise ValueError(f"unit vector has length {len(unit)}, want {dim}")
        self.field = field
        self.dim = dim
        self.mul = tuple(table)
        self.unit = tuple(unit)
        self._left_mats = None
        self._right_mats = None
        self._gens = None

    def basis_vector(self, i: int) -> tuple:
        return unit_vector(self.field, self.dim, i)

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        """x * y = sum of x_i y_j c[i][j], summed in plain arithmetic over
        the nonzero coefficients only and reduced once over GF(p)."""
        f = self.field
        out = [f.zero] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            row = self.mul[i]
            for j, b in enumerate(y):
                if not b:
                    continue
                ab = a * b
                for k, c in enumerate(row[j]):
                    if c:
                        out[k] += ab * c
        if f.p is not None:
            return tuple(v % f.p for v in out)
        return tuple(out)

    def _basis_left_mats(self) -> tuple:
        # left multiplication by e_i as a matrix: columns are e_i * e_j
        if self._left_mats is None:
            self._left_mats = tuple(
                Matrix.from_cols(self.field, [self.mul[i][j] for j in range(self.dim)], rows=self.dim)
                for i in range(self.dim)
            )
        return self._left_mats

    def _basis_right_mats(self) -> tuple:
        if self._right_mats is None:
            self._right_mats = tuple(
                Matrix.from_cols(self.field, [self.mul[j][i] for j in range(self.dim)], rows=self.dim)
                for i in range(self.dim)
            )
        return self._right_mats

    def generator_indices(self) -> tuple:
        """Basis indices G, none redundant, whose elements generate the
        algebra as a unital algebra: the basis is walked keeping each e_i
        outside the closure of span{1} under left multiplication by the kept
        ones, then each kept index the others still generate is dropped."""
        if self._gens is None:
            mats = self._basis_left_mats()

            def generated(gens, start):
                return closure(start, [mats[g].apply for g in gens])

            kept, before, span = [], [], Basis.span(self.field, self.dim, [self.unit])
            for i in range(self.dim):
                if not span.contains_vector(self.basis_vector(i)):
                    kept.append(i)
                    before.append(span)
                    span = generated(kept, span)
            if span.dim != self.dim:
                raise AssertionError("generators do not span the algebra")
            # the last kept index lies outside what the ones before it
            # generate; the others are tested from the back, so the ones
            # before kept[j] are all still there and generate before[j]
            for j in reversed(range(len(kept) - 1)):
                rest = kept[:j] + kept[j + 1:]
                if generated(rest, before[j]).dim == self.dim:
                    kept = rest
            self._gens = tuple(kept)
        return self._gens

    def left_mult_matrix(self, a: Sequence) -> Matrix:
        """The matrix of x |-> a*x."""
        return _combination(self.field, a, self._basis_left_mats(), self.dim)

    def right_mult_matrix(self, a: Sequence) -> Matrix:
        """The matrix of x |-> x*a."""
        return _combination(self.field, a, self._basis_right_mats(), self.dim)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.mul == other.mul
            and self.unit == other.unit
        )

    def __hash__(self) -> int:
        # cached, as the modules over it hash it: see modules._Module
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.field, self.dim, self.mul, self.unit))
            return h

    def __repr__(self) -> str:
        return f"Algebra(dim {self.dim} over {self.field})"


def validate_algebra(a: Algebra) -> list:
    """Check associativity on all basis triples and both unit laws.

    Returns:
        A list of human-readable failure strings, empty exactly when the
        structure constants define an associative unital algebra.
    """
    failures = []
    basis = [a.basis_vector(k) for k in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            left = a.mul[i][j]
            for k in range(a.dim):
                lhs = a.multiply(left, basis[k])
                rhs = a.multiply(basis[i], a.mul[j][k])
                if lhs != rhs:
                    failures.append(f"associativity fails at basis triple ({i}, {j}, {k})")
    for i in range(a.dim):
        e = a.basis_vector(i)
        if a.multiply(a.unit, e) != e:
            failures.append(f"left unit law fails at basis {i}")
        if a.multiply(e, a.unit) != e:
            failures.append(f"right unit law fails at basis {i}")
    return failures


def upper_triangular_algebra(field: Field, n: int) -> Algebra:
    """Upper triangular n x n matrices; basis e_ij for i <= j, row-major."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return _matrix_units(field, pairs)


def full_matrix_algebra(field: Field, n: int) -> Algebra:
    """All n x n matrices; basis e_ij row-major."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return _matrix_units(field, pairs)


def _matrix_units(field: Field, pairs: list) -> Algebra:
    index = {p: t for t, p in enumerate(pairs)}
    dim = len(pairs)
    mul = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            v = [field.zero] * dim
            if j == k and (i, l) in index:
                v[index[(i, l)]] = field.one
            row.append(tuple(v))
        mul.append(tuple(row))
    unit = [field.zero] * dim
    size = max(i for i, _ in pairs) + 1 if pairs else 0
    for d in range(size):
        if (d, d) in index:
            unit[index[(d, d)]] = field.one
    return Algebra(field, dim, mul, tuple(unit))


class Ideal:
    """A two-sided ideal, held as a canonical Basis of the algebra's space.

    Stability under multiplication from both sides is asserted at
    construction, so every Ideal in circulation satisfies the invariant.
    It is asserted for the generators (Algebra.generator_indices, on an
    algebra that passes validate_algebra) only: the a with aI in I, like
    those with Ia in I, form a subalgebra.  One rank test covers every
    (generator, side); only when it fails are the products walked, to
    name the first that escapes.  The whole space is not tested, since
    it holds every product.
    """

    __slots__ = ("algebra", "basis")

    def __init__(self, algebra: Algebra, basis: Basis):
        if basis.ambient_dim != algebra.dim:
            raise ValueError("ideal basis lives in the wrong ambient space")
        if basis.dim != algebra.dim:
            f, gens = algebra.field, algebra.generator_indices()
            rows = list(basis.vectors)
            for i in gens:
                for m in (algebra._basis_left_mats()[i], algebra._basis_right_mats()[i]):
                    rows += _dot_products(f, basis.vectors, m.entries)
            if len(_pivot_rows(f, rows, algebra.dim)[1]) != basis.dim:
                for i in gens:
                    e = algebra.basis_vector(i)
                    for v in basis.vectors:
                        if not basis.contains_vector(algebra.multiply(e, v)):
                            raise ValueError(f"not left-stable: e_{i} * basis vector escapes the span")
                        if not basis.contains_vector(algebra.multiply(v, e)):
                            raise ValueError(f"not right-stable: basis vector * e_{i} escapes the span")
        self.algebra = algebra
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.dim

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and self.algebra == other.algebra and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.algebra, self.basis))

    def __repr__(self) -> str:
        return f"Ideal(dim {self.dim} of {self.algebra!r})"


def two_sided_ideal_closure(a: Algebra, generators: Sequence[Sequence]) -> Ideal:
    """Smallest two-sided ideal containing the generators."""
    span = Basis.span(a.field, a.dim, [tuple(g) for g in generators])
    mults = a._basis_left_mats() + a._basis_right_mats()
    return Ideal(a, closure(span, [m.apply for m in mults]))


def ideal_product(a: Algebra, left: Ideal, right: Ideal) -> Ideal:
    """The ideal spanned by products x*y for x in left, y in right."""
    vecs = [a.multiply(u, v) for u in left.basis.vectors for v in right.basis.vectors]
    return Ideal(a, Basis.span(a.field, a.dim, vecs))


def stabilize_ideal(a: Algebra, ideal: Ideal) -> tuple:
    """Iterate powers I, I^2, ... until they stop shrinking.

    Returns:
        (stable, n) where stable = I^n = I^(n+1) and n is minimal.  The
        chain I >= I^2 >= ... strictly decreases in dimension until it
        stabilizes, so this terminates within dim(A) steps.  The whole
        algebra is (A, 1) with no product formed: A.A holds 1.1 = 1, so
        A.A = A.
    """
    if ideal.dim == a.dim:
        return ideal, 1
    current = ideal
    n = 1
    while True:
        nxt = ideal_product(a, current, ideal)
        if not current.basis.contains(nxt.basis):
            raise AssertionError("ideal powers failed to decrease")
        if nxt.basis == current.basis:
            return current, n
        current = nxt
        n += 1


def quotient_algebra(a: Algebra, ideal: Ideal) -> tuple:
    """The quotient A/I with its projection.

    Returns:
        (Q, projection) where Q's coordinates are the non-pivot standard
        coordinates of the ideal's echelon basis and projection is the
        quotient map matrix (Q.dim x A.dim).
    """
    q = quotient_structure(ideal.basis)
    # quotient coordinate i lifts to e_(free column i)
    mul = [[q.projection.apply(a.mul[i][j]) for j in q.nonpivots] for i in q.nonpivots]
    return Algebra(a.field, q.dim, mul, q.projection.apply(a.unit)), q.projection


def subalgebra_on_basis(a: Algebra, basis: Basis, unit_vec: Sequence) -> tuple:
    """An algebra structure on a multiplicatively closed subspace.

    Args:
        basis: subspace closed under multiplication.
        unit_vec: element of the subspace acting as its unit.

    Returns:
        (S, inclusion) with S in the subspace coordinates and inclusion the
        a.dim x basis.dim matrix embedding S back into a.
    """
    coords_unit = basis.coords(tuple(unit_vec))
    if coords_unit is None:
        raise ValueError("proposed unit is outside the subspace")
    mul = []
    for u in basis.vectors:
        row = []
        for v in basis.vectors:
            prod = basis.coords(a.multiply(u, v))
            if prod is None:
                raise ValueError("subspace is not closed under multiplication")
            row.append(prod)
        mul.append(tuple(row))
    sub = Algebra(a.field, basis.dim, mul, coords_unit)
    return sub, basis.matrix_cols()
