from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moritakit.exactlin import QQ, Basis, Field
from moritakit.algebra import (
    Algebra,
    Ideal,
    full_matrix_algebra,
    ideal_product,
    quotient_algebra,
    stabilize_ideal,
    subalgebra_on_basis,
    two_sided_ideal_closure,
    upper_triangular_algebra,
    validate_algebra,
)

GF2 = Field.gf(2)

E11, E12, E22 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_t2_multiplication_table(t2):
    assert t2.dim == 3
    assert t2.unit == (1, 0, 1)
    assert t2.multiply(E11, E12) == E12
    assert t2.multiply(E12, E11) == (0, 0, 0)
    assert t2.multiply(E12, E22) == E12
    assert t2.multiply(E22, E12) == (0, 0, 0)


def test_t2_validates_clean(t2):
    assert validate_algebra(t2) == []


def test_m2_validates_clean(m2):
    assert m2.dim == 4
    assert validate_algebra(m2) == []


def test_validate_reports_broken_product(t2):
    # zero out e12*e22; this leaves associativity intact but breaks the
    # right unit law on e12 (e12 * (e11+e22) becomes 0)
    mul = [list(row) for row in t2.mul]
    mul[1][2] = (0, 0, 0)
    broken = Algebra(GF2, 3, [tuple(r) for r in mul], t2.unit)
    report = validate_algebra(broken)
    assert report != []
    assert "right unit law fails at basis 1" in report
    assert not any("associativity" in line for line in report)


def test_shape_mismatch_raises(t2):
    with pytest.raises(ValueError):
        Algebra(GF2, 3, t2.mul, (1, 0))
    with pytest.raises(ValueError):
        Algebra(GF2, 2, t2.mul, (1, 0))


def test_left_right_mult_matrices(t2):
    for i in range(3):
        e = t2.basis_vector(i)
        L = t2.left_mult_matrix(e)
        R = t2.right_mult_matrix(e)
        for j in range(3):
            v = t2.basis_vector(j)
            assert L.apply(v) == t2.multiply(e, v)
            assert R.apply(v) == t2.multiply(v, e)


def test_ideal_closure_of_e22(t2):
    ideal = two_sided_ideal_closure(t2, [E22])
    assert ideal.dim == 2
    assert ideal.basis == Basis.span(GF2, 3, [E12, E22])


def test_ideal_stability_enforced(t2):
    # span{e22} alone is not an ideal: e12 * e22 = e12 escapes
    with pytest.raises(ValueError):
        Ideal(t2, Basis.span(GF2, 3, [E22]))


def test_ideal_product_and_idempotency(t2):
    ideal = two_sided_ideal_closure(t2, [E22])
    square = ideal_product(t2, ideal, ideal)
    assert square == ideal


def test_stabilize_idempotent_ideal(t2):
    ideal = two_sided_ideal_closure(t2, [E22])
    stable, n = stabilize_ideal(t2, ideal)
    assert stable == ideal
    assert n == 1


def test_stabilize_nilpotent_ideal(t2):
    ideal = two_sided_ideal_closure(t2, [E12])
    assert ideal.dim == 1
    stable, n = stabilize_ideal(t2, ideal)
    assert stable.dim == 0
    assert n == 2


def test_quotient_by_trace_ideal_is_ground_field(t2):
    ideal = two_sided_ideal_closure(t2, [E22])
    q, proj = quotient_algebra(t2, ideal)
    assert q.dim == 1
    assert validate_algebra(q) == []
    assert q.unit == (1,)
    assert proj.apply(t2.unit) == q.unit


def test_quotient_by_radical_is_product_of_fields(t2):
    rad = two_sided_ideal_closure(t2, [E12])
    q, proj = quotient_algebra(t2, rad)
    assert q.dim == 2
    assert validate_algebra(q) == []
    # k x k: both residual idempotents survive, product of distinct ones is 0
    assert q.multiply((1, 0), (1, 0)) == (1, 0)
    assert q.multiply((1, 0), (0, 1)) == (0, 0)
    # projection is an algebra map
    for i in range(3):
        for j in range(3):
            x, y = t2.basis_vector(i), t2.basis_vector(j)
            assert proj.apply(t2.multiply(x, y)) == q.multiply(proj.apply(x), proj.apply(y))


def test_quotient_by_whole_algebra_is_zero(t2):
    whole = two_sided_ideal_closure(t2, [t2.basis_vector(i) for i in range(3)])
    q, _ = quotient_algebra(t2, whole)
    assert q.dim == 0
    assert validate_algebra(q) == []


def test_corner_subalgebra(t2):
    # e22 * T2 * e22 = span{e22}, a copy of GF(2)
    sub_basis = Basis.span(GF2, 3, [E22])
    s, incl = subalgebra_on_basis(t2, sub_basis, E22)
    assert s.dim == 1
    assert validate_algebra(s) == []
    assert incl.col(0) == E22


def test_subalgebra_rejects_unclosed_subspace(t2):
    # e11 * (e12+e22) = e12 falls outside span{e11, e12+e22}
    bad = Basis.span(GF2, 3, [E11, (0, 1, 1)])
    with pytest.raises(ValueError):
        subalgebra_on_basis(t2, bad, E11)


def test_rational_polynomial_quotient_algebra():
    # k[x]/(x^2): basis (1, x), x*x = 0
    one, x = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    zero = (Fraction(0), Fraction(0))
    mul = ((one, x), (x, zero))
    a = Algebra(QQ, 2, mul, one)
    assert validate_algebra(a) == []
    rad = two_sided_ideal_closure(a, [x])
    stable, n = stabilize_ideal(a, rad)
    assert (stable.dim, n) == (0, 2)


def test_m2_is_simple(m2):
    # any nonzero generator blows up to the whole algebra
    for i in range(4):
        ideal = two_sided_ideal_closure(m2, [m2.basis_vector(i)])
        assert ideal.dim == 4


def _dense_product(a, x, y):
    """x * y summed over every structure-constant vector with Field ops."""
    f = a.field
    out = [f.zero] * a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            c = f.mul(x[i], y[j])
            out = [f.add(o, f.mul(c, m)) for o, m in zip(out, a.mul[i][j])]
    return tuple(out)


@st.composite
def products(draw):
    """A random bilinear table (not necessarily associative) and two vectors."""
    field = draw(st.sampled_from([GF2, Field.gf(3), QQ]))
    if field.p is None:
        scalar = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3),
                                                         st.integers(1, 4)))
    else:
        scalar = st.integers(0, field.p - 1)
    n = draw(st.integers(0, 4))
    vec = st.lists(scalar, min_size=n, max_size=n)
    mul = draw(st.lists(st.lists(vec, min_size=n, max_size=n), min_size=n, max_size=n))
    a = Algebra(field, n, mul, draw(vec))
    return a, draw(vec), draw(vec)


@given(products())
@settings(max_examples=200, deadline=None)
def test_multiply_matches_dense_formula(case):
    a, x, y = case
    got = a.multiply(x, y)
    assert got == _dense_product(a, x, y)
    if a.field.p is None:
        assert all(type(v) is Fraction for v in got)
