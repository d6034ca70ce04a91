"""Algebra generators, and the solves that run on them only: hom spaces,
bimodule hom spaces, balancing relations and the submodule stability check
must give the same spaces as the all-basis solves of tests/bruteforce.py."""

import os
import random
from fractions import Fraction

import pytest

from moritakit.algebra import Algebra, full_matrix_algebra, upper_triangular_algebra
from moritakit.context import bimodule_hom_space, corner_context
from moritakit.equivalence import build_catalog
from moritakit.exactlin import QQ, Basis, Field, Matrix
from moritakit.modules import LeftModule, Submodule, direct_sum, hom_space, regular_module, tensor_over
from moritakit.workspace import parse_workspace

from bruteforce import all_subspaces, hom_all_basis, is_stable, tensor_relations_all_basis
from test_equivalence import _radical_square_zero, _rebased, _unimodular

GF2 = Field.gf(2)
WORKSPACE_DIR = os.path.join(os.path.dirname(__file__), "..", "workspaces")
E11_M3 = (1, 0, 0, 0, 0, 0, 0, 0, 0)


def _generated(alg: Algebra, gens) -> Basis:
    """span{1} closed under left multiplication by e_g for g in gens."""
    space = Basis.span(alg.field, alg.dim, [alg.unit])
    while True:
        images = [alg.multiply(alg.basis_vector(g), v) for g in gens for v in space.vectors]
        grown = Basis.span(alg.field, alg.dim, list(space.vectors) + images)
        if grown == space:
            return space
        space = grown


def _both_bases(alg: Algebra, seed: int = 7) -> list:
    return [alg, _rebased(alg, _unimodular(alg.dim, seed))]


GENERATED_ALGEBRAS = [
    pytest.param(alg, id=f"{name}-{basis}")
    for name, alg in [("T2", upper_triangular_algebra(GF2, 2)),
                      ("M2", full_matrix_algebra(GF2, 2)),
                      ("T3", upper_triangular_algebra(GF2, 3)),
                      ("GF2[x,y,z]/(x,y,z)^2", _radical_square_zero(GF2, 3))]
    for basis, alg in zip(("standard", "rebased7"), _both_bases(alg))
] + [pytest.param(full_matrix_algebra(QQ, 3), id="M3(Q)")]


@pytest.mark.parametrize("alg", GENERATED_ALGEBRAS)
def test_generators_generate_and_are_irredundant(alg):
    gens = alg.generator_indices()
    assert gens == tuple(sorted(set(gens)))
    assert _generated(alg, gens).dim == alg.dim
    for g in gens:
        assert _generated(alg, [h for h in gens if h != g]).dim < alg.dim


def test_generator_counts_in_the_standard_bases():
    assert len(full_matrix_algebra(QQ, 3).generator_indices()) == 4
    assert len(full_matrix_algebra(GF2, 2).generator_indices()) == 2
    assert len(upper_triangular_algebra(GF2, 2).generator_indices()) == 2
    assert len(upper_triangular_algebra(GF2, 3).generator_indices()) == 4
    assert _radical_square_zero(GF2, 3).generator_indices() == (1, 2, 3)


def test_one_dimensional_algebra_has_no_generators_and_every_map_is_a_hom():
    s = corner_context(full_matrix_algebra(QQ, 3), E11_M3).S
    assert s.dim == 1 and s.generator_indices() == ()
    q2 = direct_sum(regular_module(s), regular_module(s))
    q3 = direct_sum(q2, regular_module(s))
    hom = hom_space(q2, q3)
    assert hom.dim == 6
    assert hom.basis == Basis.full(QQ, 6)


@pytest.mark.parametrize("alg", [
    pytest.param(upper_triangular_algebra(GF2, 2), id="T2"),
    pytest.param(full_matrix_algebra(GF2, 2), id="M2"),
    pytest.param(_radical_square_zero(GF2, 2), id="GF2[x,y]/(x,y)^2"),
    pytest.param(_rebased(full_matrix_algebra(GF2, 2), _unimodular(4, 7)), id="M2-rebased7"),
])
def test_submodule_check_on_generators_matches_every_basis_action(alg):
    # the constructor checks stability under the generators only; a
    # subspace that escapes some basis action must still be refused
    reg = regular_module(alg)
    refused = 0
    for b in all_subspaces(alg.field, alg.dim):
        if is_stable(reg, b):
            assert Submodule(reg, b).basis == b
        else:
            refused += 1
            with pytest.raises(ValueError, match="not action-stable"):
                Submodule(reg, b)
    assert refused > 0


def _assert_homs_match(modules):
    for a in modules:
        for b in modules:
            assert hom_space(a, b).basis.vectors == hom_all_basis(a, b).vectors


@pytest.mark.parametrize("alg, max_dim", [
    pytest.param(upper_triangular_algebra(GF2, 2), 3, id="T2-GF2-3"),
    pytest.param(_rebased(upper_triangular_algebra(GF2, 2), _unimodular(3, 7)), 3, id="T2-GF2-3-rebased7"),
    pytest.param(full_matrix_algebra(GF2, 2), 3, id="M2-GF2-3"),
    pytest.param(_radical_square_zero(GF2, 2), 3, id="GF2[x,y]/(x,y)^2-3"),
])
def test_hom_space_matches_the_all_basis_solve_on_catalogs(alg, max_dim):
    _assert_homs_match(build_catalog(alg, max_dim).modules)


def _conjugate(m: LeftModule, rng: random.Random) -> LeftModule:
    """P A P^-1 for every action matrix A, P a random signed permutation."""
    n = m.dim
    perm = list(range(n))
    rng.shuffle(perm)
    p = Matrix(QQ, [[Fraction(rng.choice((1, -1))) if j == perm[i] else Fraction(0)
                     for j in range(n)] for i in range(n)], cols=n)
    p_inv = p.transpose()
    return LeftModule(m.algebra, n, [p @ a @ p_inv for a in m.action])


def test_hom_space_matches_the_all_basis_solve_over_m3q():
    r = full_matrix_algebra(QQ, 3)
    s = corner_context(r, E11_M3).S
    units = [Matrix(QQ, [[Fraction(int((a, b) == (i, j))) for b in range(3)] for a in range(3)], cols=3)
             for i in range(3) for j in range(3)]
    v = LeftModule(r, 3, units)
    reg = regular_module(r)
    s1 = regular_module(s)
    s2 = direct_sum(s1, s1)
    r_side = [v, direct_sum(v, v), reg, direct_sum(reg, v)]
    s_side = [s1, s2, direct_sum(s2, s1)]
    rng = random.Random(1)
    _assert_homs_match(r_side + [_conjugate(m, rng) for m in r_side])
    _assert_homs_match(s_side + [_conjugate(m, rng) for m in s_side])


@pytest.mark.parametrize("name", ["t2_corner.json", "m2_corner.json", "identity.json"])
def test_bimodule_hom_space_matches_the_all_basis_solve_on_workspaces(name):
    ws = parse_workspace(os.path.join(WORKSPACE_DIR, name))
    bims = list(ws.bimodules.values())
    for ctx in ws.contexts.values():
        bims += [ctx.M, ctx.N]
    assert bims
    for a in bims:
        for b in bims:
            if (a.left_algebra, a.right_algebra) == (b.left_algebra, b.right_algebra):
                assert bimodule_hom_space(a, b).basis.vectors == hom_all_basis(a, b).vectors


@pytest.mark.parametrize("alg, e", [
    pytest.param(upper_triangular_algebra(GF2, 2), (1, 0, 0), id="T2-e11"),
    pytest.param(upper_triangular_algebra(GF2, 2), (0, 0, 1), id="T2-e22"),
    pytest.param(full_matrix_algebra(GF2, 2), (1, 0, 0, 0), id="M2-e11"),
    pytest.param(full_matrix_algebra(QQ, 3), E11_M3, id="M3(Q)-e11"),
])
def test_tensor_relations_match_the_all_basis_span_on_corners(alg, e):
    ctx = corner_context(alg, e)
    assert ctx.MN.relations.vectors == tensor_relations_all_basis(ctx.S, ctx.M, ctx.N).vectors
    assert ctx.NM.relations.vectors == tensor_relations_all_basis(ctx.R, ctx.N, ctx.M).vectors
    reg = regular_module(ctx.R)
    assert (tensor_over(ctx.R, ctx.N, reg).relations.vectors
            == tensor_relations_all_basis(ctx.R, ctx.N, reg).vectors)
