import pytest

from moritakit.exactlin import Basis, Field, Matrix
from moritakit.algebra import Algebra, full_matrix_algebra, upper_triangular_algebra
from moritakit.modules import LeftModule, Submodule, regular_module

GF2 = Field.gf(2)


@pytest.fixture(scope="session")
def t2():
    """Upper triangular 2x2 over GF(2); basis order (e11, e12, e22)."""
    return upper_triangular_algebra(GF2, 2)


@pytest.fixture(scope="session")
def m2():
    """Full 2x2 matrix algebra over GF(2); basis order (e11, e12, e21, e22)."""
    return full_matrix_algebra(GF2, 2)


@pytest.fixture(scope="session")
def kkk():
    """k x k x k over GF(2), three orthogonal idempotents: T2's dimension,
    so only an algebra check tells the two apart."""
    e = [tuple(int(k == i) for k in range(3)) for i in range(3)]
    return Algebra(GF2, 3, [[e[i] if i == j else (0, 0, 0) for j in range(3)] for i in range(3)], (1, 1, 1))


def scalar_module(algebra, weights):
    """One-dimensional module where basis i acts as the scalar weights[i]."""
    f = algebra.field
    mats = [Matrix(f, [[f.of_int(w)]]) for w in weights]
    return LeftModule(algebra, 1, mats)


@pytest.fixture(scope="session")
def s1(t2):
    """Simple at the first vertex: e11 acts as 1, e12 and e22 act as 0."""
    return scalar_module(t2, [1, 0, 0])


@pytest.fixture(scope="session")
def s2(t2):
    """Simple at the second vertex: e22 acts as 1."""
    return scalar_module(t2, [0, 0, 1])


@pytest.fixture(scope="session")
def t2_regular(t2):
    return regular_module(t2)


@pytest.fixture(scope="session")
def p2(t2, t2_regular):
    """The indecomposable projective span{e12, e22} as a module in its own
    coordinates (socle span{e12}, top isomorphic to s2)."""
    sub = Submodule(t2_regular, Basis.span(GF2, 3, [(0, 1, 0), (0, 0, 1)]))
    return sub.as_module()
