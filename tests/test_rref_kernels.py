"""The field-specialised rref kernels against the textbook Gauss-Jordan of
tests/bruteforce.py: the RREF is unique, so they must agree entry for
entry, pivots included, and over Q every entry must stay a Fraction.
Each matrix also goes in as sparse {column: value} rows, the way the hom
and Ext solves write their equations."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_rref
from moritakit.exactlin import QQ, Field, Matrix, _sparse_pivot_rows, rref

FIELDS = [Field.gf(2), Field.gf(3), Field.gf(5), Field.gf(65521), QQ]


def scalars(field, small=False):
    if field.p is not None:
        return st.integers(0, min(field.p - 1, 2) if small else field.p - 1)
    nums = st.integers(-2, 2) if small else st.integers(-9, 9)
    # plain ints, integral Fractions and proper fractions all occur over Q
    return st.one_of(nums, st.builds(Fraction, nums, st.integers(1, 6)))


@st.composite
def small_matrices(draw, max_dim=6):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    ent = draw(st.lists(st.lists(scalars(field), min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    return Matrix(field, ent, cols=cols)


@st.composite
def hom_systems(draw):
    """Tall and sparse, like the intertwining equations of hom_space: many
    rows over few columns, each row with at most three small nonzeros."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(1, 12))
    rows = draw(st.integers(cols, 4 * cols))
    ent = []
    for _ in range(rows):
        row = [field.zero] * cols
        for j, a in draw(st.dictionaries(st.integers(0, cols - 1), scalars(field, small=True),
                                         max_size=3)).items():
            row[j] = a
        ent.append(row)
    return Matrix(field, ent, cols=cols)


def assert_kernel_agrees(m):
    red, pivots = rref(m)
    assert (red, pivots) == brute_rref(m)
    if m.field.p is None:
        assert all(type(x) is Fraction for r in red.entries for x in r)
    # sparse rows: zeros dropped, zeros kept, and over GF(p) every entry
    # written as its negative representative x - p
    p = m.field.p or 0
    for sparse in ([{j: x for j, x in enumerate(r) if x} for r in m.entries],
                   [dict(enumerate(r)) for r in m.entries],
                   [{j: x - p for j, x in enumerate(r)} for r in m.entries]):
        assert _sparse_pivot_rows(m.field, sparse, m.cols) == (list(red.entries[:len(pivots)]), pivots)


@given(small_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_gauss_jordan(m):
    assert_kernel_agrees(m)


@given(hom_systems())
@settings(max_examples=150, deadline=None)
def test_rref_matches_gauss_jordan_on_tall_sparse_systems(m):
    assert_kernel_agrees(m)


def test_rref_of_empty_shapes():
    for field in FIELDS:
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            m = Matrix(field, [()] * rows, cols=0) if cols == 0 else Matrix(field, [], cols=cols)
            assert_kernel_agrees(m)
            assert rref(m) == (m, ())


def test_rational_int_entries_stay_exact():
    m = Matrix(QQ, [[3, 1], [1, 2]])
    inv = m.inverse()
    assert inv.entries == ((Fraction(2, 5), Fraction(-1, 5)), (Fraction(-1, 5), Fraction(3, 5)))
    red, pivots = rref(m)
    assert red.entries == ((1, 0), (0, 1)) and pivots == (0, 1)
    assert all(type(x) is Fraction for r in inv.entries + red.entries for x in r)
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
