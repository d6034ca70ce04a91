from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moritakit.exactlin import (
    QQ,
    Basis,
    Field,
    Matrix,
    basis_intersection,
    basis_sum,
    hstack,
    invertible_combinations,
    invertible_search,
    kernel_basis,
    points_fit,
    quotient_structure,
    rank,
    rref,
    solve,
    subspace_ops,
    unit_vector,
)

from bruteforce import invertible_tuples_lex

GF2 = Field.gf(2)
GF5 = Field.gf(5)


def test_field_validation():
    with pytest.raises(ValueError):
        Field.gf(4)
    with pytest.raises(ValueError):
        Field.gf(2 ** 16 + 1)
    assert Field.gf(65521).p == 65521  # largest prime below 2**16


def test_field_arithmetic_gf5():
    assert GF5.add(3, 4) == 2
    assert GF5.inv(3) == 2
    assert GF5.neg(1) == 4


def test_field_parse_roundtrip():
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert QQ.to_json(Fraction(-4, 6)) == "-2/3"
    assert QQ.to_json(Fraction(5)) == "5"
    assert GF2.parse(7) == 1
    with pytest.raises(ValueError):
        GF2.parse("1")


def test_rref_rational_example():
    m = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    red, pivots = rref(m)
    assert red.entries == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))
    assert pivots == (0,)


def test_kernel_gf2_example():
    m = Matrix(GF2, [[1, 1]])
    ker = kernel_basis(m)
    assert ker.vectors == ((1, 1),)


def test_solve_gf2_example():
    a = Matrix(GF2, [[1, 1], [0, 1]])
    assert solve(a, (0, 1)) == (1, 1)


def test_solve_inconsistent():
    a = Matrix(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert solve(a, (Fraction(0), Fraction(1))) is None


def test_subspace_ops_example():
    u = Basis.span(QQ, 2, [(Fraction(1), Fraction(0))])
    v = Basis.span(QQ, 2, [(Fraction(0), Fraction(1))])
    ops = subspace_ops(u, v)
    assert ops.sum.dim == 2
    assert ops.intersection.dim == 0
    assert not ops.equal
    assert not ops.contains


def test_subspace_ops_gf2_cube():
    # U = span{e1+e2, e3}, V = span{e2+e3} inside GF(2)^3
    u = Basis.span(GF2, 3, [(1, 1, 0), (0, 0, 1)])
    v = Basis.span(GF2, 3, [(0, 1, 1)])
    ops = subspace_ops(u, v)
    assert ops.intersection.dim == 0
    assert ops.sum.dim == 3


def test_quotient_structure_example():
    u = Basis.span(GF2, 3, [(1, 0, 0)])
    q = quotient_structure(u)
    assert q.dim == 2
    assert q.projection.pick_cols(q.nonpivots) == Matrix.identity(GF2, 2)
    # kernel of the projection is exactly the subspace
    assert kernel_basis(q.projection) == u


def test_basis_coords_roundtrip():
    b = Basis.span(GF5, 3, [(1, 2, 3), (0, 1, 4)])
    v = b.from_coords((2, 3))
    assert b.coords(v) == (2, 3)
    assert b.coords((0, 0, 1)) is None


def test_coords_matrix_reads_columns_and_names_the_broken_invariant():
    b = Basis.span(GF5, 3, [(1, 2, 3), (0, 1, 4)])
    m = b.coords_matrix([b.from_coords((2, 3)), b.from_coords((0, 1))], "unused")
    assert m == Matrix.from_cols(GF5, [(2, 3), (0, 1)], rows=2)
    with pytest.raises(AssertionError, match="image escaped the span"):
        b.coords_matrix([b.from_coords((1, 1)), (0, 0, 1)], "image escaped the span")


def test_coords_matrix_of_no_vectors_is_dim_by_zero():
    b = Basis.span(QQ, 3, [(Fraction(1), Fraction(0), Fraction(2))])
    m = b.coords_matrix([], "unused")
    assert (m.rows, m.cols) == (1, 0)
    assert Basis.zero(GF2, 2).coords_matrix([], "unused") == Matrix.zeros(GF2, 0, 0)


def test_matrix_inverse():
    m = Matrix(GF5, [[1, 2], [3, 4]])
    assert (m @ m.inverse()) == Matrix.identity(GF5, 2)
    with pytest.raises(ValueError):
        Matrix(GF2, [[1, 1], [1, 1]]).inverse()


def test_zero_dimensional_shapes():
    m = Matrix(GF2, [], cols=3)
    assert rank(m) == 0
    ker = kernel_basis(m)
    assert ker.dim == 3
    empty = Matrix.from_cols(GF2, [], rows=2)
    assert empty.cols == 0 and empty.rows == 2


fields = st.sampled_from([GF2, GF5, QQ])


@st.composite
def matrices(draw, max_dim=5):
    field = draw(fields)
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    raw = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    ent = [[field.of_int(x) for x in r] for r in raw]
    return Matrix(field, ent, cols=cols)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent_and_row_space_preserved(m):
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert again == red
    assert pivots2 == pivots
    assert Basis.span(m.field, m.cols, m.entries) == Basis.span(m.field, m.cols, red.entries)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@given(matrices(max_dim=4), matrices(max_dim=4))
@settings(max_examples=100, deadline=None)
def test_sum_intersection_dimension_formula(a, b):
    field = a.field
    n = a.cols
    u = Basis.span(field, n, a.entries)
    if b.cols == n and b.field == field:
        w = Basis.span(field, n, b.entries)
    else:
        w = Basis.zero(field, n)
    ops = subspace_ops(u, w)
    assert ops.sum.dim + ops.intersection.dim == u.dim + w.dim
    assert ops.contains == u.contains(w)


@given(matrices(max_dim=6))
@settings(max_examples=100, deadline=None)
def test_basis_sum_is_the_span_of_both(m):
    # basis_sum inserts w's rows into u's RREF; RREF is canonical, so the
    # result must be the span of both row sets, pivots included
    half = m.rows // 2
    u = Basis.span(m.field, m.cols, m.entries[:half])
    w = Basis.span(m.field, m.cols, m.entries[half:])
    total = Basis.span(m.field, m.cols, m.entries)
    assert basis_sum(u, w) == total
    assert basis_sum(u, w).pivots == total.pivots


@given(matrices(max_dim=4))
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    zero = tuple(m.field.zero for _ in range(m.rows))
    for v in ker.vectors:
        assert m.apply(v) == zero


@given(matrices(max_dim=4))
@settings(max_examples=100, deadline=None)
def test_solve_agrees_with_apply(m):
    for j in range(min(m.cols, 2)):
        b = m.apply(unit_vector(m.field, m.cols, j))
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


@given(matrices(max_dim=4))
@settings(max_examples=80, deadline=None)
def test_quotient_projection_section_laws(m):
    u = Basis.span(m.field, m.cols, m.entries)
    q = quotient_structure(u)
    assert q.dim == m.cols - u.dim
    assert q.projection.pick_cols(q.nonpivots) == Matrix.identity(m.field, q.dim)
    assert kernel_basis(q.projection) == u


def test_basis_sum_intersection_frozen():
    u = Basis.span(GF2, 4, [(1, 0, 1, 0), (0, 1, 0, 0)])
    v = Basis.span(GF2, 4, [(1, 1, 1, 0), (0, 0, 0, 1)])
    assert basis_sum(u, v).dim == 3
    inter = basis_intersection(u, v)
    assert inter.vectors == ((1, 1, 1, 0),)


def test_hstack_shape_errors():
    with pytest.raises(ValueError):
        hstack(Matrix.identity(GF2, 2), Matrix.identity(GF2, 3))


@st.composite
def matrix_spaces(draw):
    """(field, basis) of a random subspace of the d x d matrices over GF(2)
    or GF(3), d <= 4, with p**k <= 256 for the k basis maps.  Some spaces
    share a kernel vector (one zero column) or a left kernel vector (one
    zero row), so that no member is invertible."""
    p = draw(st.sampled_from([2, 3]))
    field = Field.gf(p)
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(d * d, 8 if p == 2 else 5)))
    kill = draw(st.sampled_from([None, "column", "row"]))
    at = draw(st.integers(0, d - 1))
    flat = []
    for _ in range(k):
        rows = [draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) for _ in range(d)]
        if kill == "column":
            rows = [r[:at] + [0] + r[at + 1:] for r in rows]
        elif kill == "row":
            rows[at] = [0] * d
        flat.append(tuple(x for r in rows for x in r))
    basis = Basis.span(field, d * d, flat)
    assume(basis.dim > 0)
    return field, [Matrix(field, [v[r * d:(r + 1) * d] for r in range(d)]) for v in basis.vectors]


@given(matrix_spaces())
@settings(max_examples=150, deadline=None)
def test_invertible_combinations_is_the_filtered_lex_order(space):
    # the walk skips only singular subtrees, so it yields every invertible
    # tuple, in the plain sweep's order
    field, maps = space
    assert list(invertible_combinations(field, maps)) == invertible_tuples_lex(field, maps)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_invertible_combinations_reach_the_last_tuple(d):
    # the diagonal units: every proper sub-sum kills a unit vector, and only
    # their full sum, the identity, is invertible
    units = [Matrix(GF2, [[int(r == c == i) for c in range(d)] for r in range(d)]) for i in range(d)]
    assert list(invertible_combinations(GF2, units)) == [(1,) * d]


def test_points_fit_counts_the_points_of_the_space():
    gf2 = Field.gf(2)
    assert points_fit(gf2, 3, 8) and not points_fit(gf2, 3, 7)
    # k^0 is one point over every field, and Q^d for d > 0 is infinite
    assert points_fit(QQ, 0, 1) and not points_fit(QQ, 1, 10 ** 9)
    # so budget 0 fits no space at all
    assert not points_fit(gf2, 0, 0) and not points_fit(QQ, 0, 0)


def test_invertible_search_miss_is_a_proof():
    # both maps kill (0, 1): a shared kernel vector, so the walk stops at
    # the root and the exhaustive miss proves that no member is invertible
    maps = [Matrix(GF5, [[1, 0], [0, 0]]), Matrix(GF5, [[0, 0], [1, 0]])]
    assert list(invertible_combinations(GF5, maps)) == invertible_tuples_lex(GF5, maps) == []
    assert invertible_search(GF5, maps, lambda c: c, 4096, 512, None) == (None, True)
