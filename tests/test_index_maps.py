"""Tensor maps read by index, and workspace laws checked on generators.

tensor_over's outer actions, induced_map, eta_map and evaluation_counit
pick columns instead of multiplying by Kronecker products and sections;
they must equal the dense constructions of tests/bruteforce.py.  Module,
bimodule, context and ideal checks run on the algebras' generators only;
they must fail exactly when the all-basis checks fail."""

import os
import random

import pytest

from moritakit.algebra import Ideal, full_matrix_algebra, upper_triangular_algebra
from moritakit.context import (
    MoritaContext,
    corner_context,
    eta_map,
    evaluation_counit,
    identity_context,
    reverse_context,
    rho_map,
    validate_context,
)
from moritakit.equivalence import build_catalog
from moritakit.exactlin import QQ, Field, Matrix, random_scalar
from moritakit.modules import Bimodule, LeftModule, hom_space, regular_bimodule, tensor_over, validate_module
from moritakit.workspace import parse_workspace

from bruteforce import (
    all_matrices,
    all_subspaces,
    context_laws_all_basis,
    counit_kron,
    eta_kron,
    first_ideal_escape,
    induced_map_kron,
    is_ideal_all_basis,
    module_laws_all_pairs,
    tensor_kron,
    workspace_dense,
)
from test_equivalence import _radical_square_zero, _rebased, _unimodular
from test_torsion import _m3q_corner_cases

GF2 = Field.gf(2)
WORKSPACES = [os.path.join(os.path.dirname(__file__), "..", "workspaces", name)
              for name in ("t2_corner.json", "m2_corner.json", "identity.json")]
T2 = upper_triangular_algebra(GF2, 2)


def _assert_tensor_matches(t, middle, left, right):
    dense = tensor_kron(middle, left, right)
    assert t.relations == dense.relations
    assert t.projection == dense.projection
    assert Matrix.identity(dense.section.field, dense.section.rows).pick_cols(
        t.quotient.nonpivots) == dense.section
    assert t.left_action == dense.left_action
    assert t.right_action == dense.right_action


def _random_matrix(field, rows, cols, rng):
    return Matrix(field, [[random_scalar(field, rng) for _ in range(cols)] for _ in range(rows)], cols=cols)


def _contexts():
    """The shipped contexts, the T2/GF(2) corners at e11 and e22, and the
    M3(Q) corner at e11."""
    out = [ctx for path in WORKSPACES for ctx in parse_workspace(path).contexts.values()]
    out += [corner_context(T2, (1, 0, 0)), corner_context(T2, (0, 0, 1))]
    return out + [corner_context(full_matrix_algebra(QQ, 3), (1, 0, 0, 0, 0, 0, 0, 0, 0))]


def _side_modules(ctx):
    """(R-modules, S-modules) to feed eta and rho: the T2/GF(2) <= 3
    catalog (or the M3(Q) corner's modules with their conjugates), and
    each side's catalog <= 3 over GF(2)."""
    if ctx.R.field == QQ:
        (_, r_mods), (_, s_mods) = _m3q_corner_cases()
        return r_mods, s_mods
    return build_catalog(ctx.R, 3).modules, build_catalog(ctx.S, 3).modules


@pytest.mark.parametrize("ctx", _contexts(), ids=["t2corner", "t2identity", "m2corner", "identity",
                                                  "T2-e11", "T2-e22", "M3Q-e11"])
def test_tensor_actions_eta_and_counit_match_the_kron_oracle(ctx):
    _assert_tensor_matches(ctx.MN, ctx.S, ctx.M, ctx.N)
    _assert_tensor_matches(ctx.NM, ctx.R, ctx.N, ctx.M)
    r_mods, s_mods = _side_modules(ctx)
    for c, mods in ((ctx, r_mods), (reverse_context(ctx), s_mods)):
        for x in mods:
            _assert_tensor_matches(tensor_over(c.R, c.N, x), c.R, c.N, x)
            nat = eta_map(c, x) if c is ctx else rho_map(ctx, x)
            assert nat.matrix == eta_kron(c, x)
            assert evaluation_counit(c, x).matrix == counit_kron(c, x)


@pytest.mark.parametrize("ctx", _contexts()[:4], ids=["t2corner", "t2identity", "m2corner", "identity"])
def test_induced_map_matches_the_kron_oracle(ctx):
    # the formula needs no balance, so random maps test it as well as module maps
    rng = random.Random(3)
    f = ctx.R.field
    for t in (ctx.MN, ctx.NM):
        m, n = t.left_factor.dim, t.right_factor.dim
        for _ in range(5):
            a, b = _random_matrix(f, m, m, rng), _random_matrix(f, n, n, rng)
            assert t.induced_map(t, a, b) == induced_map_kron(t, t, a, b)
    mods = build_catalog(ctx.R, 2).modules
    eye = Matrix.identity(f, ctx.N.dim)
    for x in mods:
        for y in mods:
            tx, ty = tensor_over(ctx.R, ctx.N, x), tensor_over(ctx.R, ctx.N, y)
            for g in hom_space(x, y).matrices:
                assert tx.induced_map(ty, eye, g) == induced_map_kron(tx, ty, eye, g)


@pytest.mark.parametrize("path", WORKSPACES, ids=os.path.basename)
def test_parse_workspace_objects_match_the_dense_constructions(path):
    ws, dense = parse_workspace(path), workspace_dense(path)
    assert ws.algebras == dense.algebras
    assert ws.modules == dense.modules
    assert ws.bimodules == dense.bimodules
    assert {name: i.basis for name, i in ws.ideals.items()} == dense.ideals
    assert set(ws.contexts) == set(dense.contexts)
    for name, ctx in ws.contexts.items():
        d = dense.contexts[name]
        assert (ctx.R, ctx.S, ctx.M, ctx.N, ctx.phi, ctx.psi) == (d.R, d.S, d.M, d.N, d.phi, d.psi)
        for t, dt in ((ctx.MN, d.MN), (ctx.NM, d.NM)):
            assert (t.relations, t.projection, t.left_action, t.right_action) == (
                dt.relations, dt.projection, dt.left_action, dt.right_action)


LAW_ALGEBRAS = [
    pytest.param(T2, id="T2"),
    pytest.param(full_matrix_algebra(GF2, 2), id="M2"),
    pytest.param(_rebased(full_matrix_algebra(GF2, 2), _unimodular(4, 7)), id="M2-rebased7"),
    pytest.param(_radical_square_zero(GF2, 2), id="GF2[x,y]/(x,y)^2"),
]


def _perturbed(mats, k, rng):
    """mats with a random matrix added to mats[k]."""
    f, n = mats[k].field, mats[k].rows
    return [m + _random_matrix(f, n, n, rng) if i == k else m for i, m in enumerate(mats)]


@pytest.mark.parametrize("alg", LAW_ALGEBRAS)
def test_module_laws_on_generators_fail_exactly_when_all_pairs_fail(alg):
    rng = random.Random(11)
    verdicts = set()
    for m in build_catalog(alg, 2).modules:
        if m.dim == 0:
            continue
        cases = [m] + [LeftModule(alg, m.dim, _perturbed(m.action, k, rng))
                       for k in range(alg.dim) for _ in range(4)]
        for case in cases:
            broken = bool(module_laws_all_pairs(case))
            assert bool(validate_module(case)) == broken
            verdicts.add(broken)
    assert verdicts == {True, False}


def _invertibles(f, n, rng):
    """Every invertible n x n matrix over f when there are at most 512
    candidates, else 120 random invertible ones."""
    if f.p ** (n * n) <= 512:
        return [m for m in all_matrices(f, n, n) if m.is_invertible()]
    out = []
    while len(out) < 120:
        m = _random_matrix(f, n, n, rng)
        if m.is_invertible():
            out.append(m)
    return out


@pytest.mark.parametrize("alg", LAW_ALGEBRAS)
def test_bimodule_laws_on_generators_fail_exactly_when_all_pairs_fail(alg):
    rng = random.Random(12)
    bim = regular_bimodule(alg)
    cases = [bim]
    # conjugating one side keeps both one-sided laws; commutation may break
    # at any pair of basis elements
    for p in _invertibles(alg.field, alg.dim, rng):
        p_inv = p.inverse()
        cases.append(Bimodule(alg, alg, alg.dim, bim.left_action, [p @ a @ p_inv for a in bim.right_action]))
        cases.append(Bimodule(alg, alg, alg.dim, [p @ a @ p_inv for a in bim.left_action], bim.right_action))
    for k in range(alg.dim):
        for _ in range(3):
            cases.append(Bimodule(alg, alg, alg.dim, _perturbed(bim.left_action, k, rng), bim.right_action))
            cases.append(Bimodule(alg, alg, alg.dim, bim.left_action, _perturbed(bim.right_action, k, rng)))
    verdicts = set()
    for case in cases:
        broken = bool(module_laws_all_pairs(case))
        assert bool(validate_module(case)) == broken
        verdicts.add(broken)
    assert verdicts == {True, False}


def _with_pairings(ctx, phi, psi):
    return MoritaContext(ctx.R, ctx.S, ctx.M, ctx.N, phi @ ctx.MN.projection, psi @ ctx.NM.projection)


def _pairings(f, rows, cols, rng):
    """Every rows x cols matrix over f when there are at most 256, else
    128 random ones."""
    if f.p ** (rows * cols) <= 256:
        return all_matrices(f, rows, cols)
    return [_random_matrix(f, rows, cols, rng) for _ in range(128)]


@pytest.mark.parametrize("ctx", [
    pytest.param(corner_context(T2, (0, 0, 1)), id="T2-e22"),
    pytest.param(corner_context(T2, (1, 0, 0)), id="T2-e11"),
    pytest.param(corner_context(full_matrix_algebra(GF2, 2), (1, 0, 0, 0)), id="M2-e11"),
    pytest.param(identity_context(_radical_square_zero(GF2, 2)), id="GF2[x,y]/(x,y)^2-identity"),
])
def test_context_laws_on_generators_fail_exactly_when_all_basis_fails(ctx):
    rng = random.Random(13)
    f = ctx.R.field
    zero_phi, zero_psi = Matrix.zeros(f, ctx.R.dim, ctx.MN.dim), Matrix.zeros(f, ctx.S.dim, ctx.NM.dim)
    cases = [ctx]
    for phi in _pairings(f, ctx.R.dim, ctx.MN.dim, rng):
        cases += [_with_pairings(ctx, phi, ctx.psi), _with_pairings(ctx, phi, zero_psi)]
    for psi in _pairings(f, ctx.S.dim, ctx.NM.dim, rng):
        cases += [_with_pairings(ctx, ctx.phi, psi), _with_pairings(ctx, zero_phi, psi)]
    verdicts = set()
    for case in cases:
        want, got = context_laws_all_basis(case), validate_context(case)
        # each linearity fails on some generator exactly when it fails on
        # some basis element; the compatibility failures are the same
        for name, alg in (("phi", "R"), ("psi", "S")):
            for side in ("left", "right"):
                assert (any(w[:2] == (name, side) for w in want if isinstance(w, tuple))
                        == any(g.startswith(f"{name} fails {side} {alg}-linearity") for g in got))
        assert ([w for w in want if isinstance(w, str)]
                == [g for g in got if "compatibility" in g])
        verdicts.add(bool(want))
    assert verdicts == {True, False}


@pytest.mark.parametrize("alg", LAW_ALGEBRAS)
def test_ideal_check_on_generators_accepts_exactly_the_ideals(alg):
    refused = 0
    for b in all_subspaces(alg.field, alg.dim):
        if is_ideal_all_basis(alg, b):
            assert Ideal(alg, b).basis == b
        else:
            refused += 1
            with pytest.raises(ValueError, match="stable"):
                Ideal(alg, b)
    assert refused > 0


@pytest.mark.parametrize("alg", LAW_ALGEBRAS)
def test_ideal_refusal_names_the_first_escaping_product(alg):
    # one rank test decides; the message is still the first escape in
    # (generator, vector, left-then-right) order
    for b in all_subspaces(alg.field, alg.dim):
        want = first_ideal_escape(alg, b)
        if want is not None:
            with pytest.raises(ValueError) as err:
                Ideal(alg, b)
            assert str(err.value) == want
