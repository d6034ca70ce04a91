"""Torsion theories: stabilization, closedness, localization, the oracle."""

import random
from fractions import Fraction

import pytest

import moritakit.algebra as algebra_layer
import moritakit.modules as modules_layer
import moritakit.torsion as torsion_layer
from moritakit.algebra import (
    Ideal,
    full_matrix_algebra,
    ideal_product,
    two_sided_ideal_closure,
    upper_triangular_algebra,
)
from moritakit.context import closed_via_eta, corner_context, reverse_context, trace_ideals
from moritakit.equivalence import build_catalog, context_theories
from moritakit.exactlin import QQ, Basis, Field, Matrix, kernel_basis
from moritakit.modules import (
    LeftModule,
    direct_sum,
    extension_space,
    hom_space,
    is_isomorphic,
    quotient_module,
    regular_module,
)
from moritakit.torsion import (
    TorsionTheory,
    closedness_map,
    ideal_power_chain,
    is_closed,
    is_torsion,
    is_torsion_free,
    localize,
    rel_injective_oracle,
    torsion_submodule,
)

from bruteforce import closedness_via_hom_module, ideal_bimodule_by_products, localize_via_hom_module

GF2 = Field.gf(2)
E11 = (GF2.one, GF2.zero, GF2.zero)
E12 = (GF2.zero, GF2.one, GF2.zero)
E22 = (GF2.zero, GF2.zero, GF2.one)


@pytest.fixture(scope="module")
def corner(t2):
    return corner_context(t2, E22)


@pytest.fixture(scope="module")
def theory(t2, corner):
    i, _ = trace_ideals(corner)
    return TorsionTheory.from_ideal(t2, i)


@pytest.fixture(scope="module")
def everything_torsion(t2):
    # zero ideal: the stabilization is zero and every module is torsion
    return TorsionTheory.from_ideal(t2, Ideal(t2, Basis.zero(GF2, 3)))


@pytest.fixture(scope="module")
def nothing_torsion(t2):
    return TorsionTheory.from_ideal(t2, two_sided_ideal_closure(t2, [t2.unit]))


def test_corner_theory_is_already_idempotent(theory):
    assert theory.exponent == 1
    assert theory.stable_ideal.dim == 2
    assert ideal_product(theory.algebra, theory.stable_ideal, theory.stable_ideal) == theory.stable_ideal


def test_nilpotent_ideal_stabilizes_to_zero(t2):
    nil = Ideal(t2, Basis.span(GF2, 3, [E12]))
    tt = TorsionTheory.from_ideal(t2, nil)
    assert tt.stable_ideal.dim == 0
    assert tt.exponent == 2


def test_from_ideal_rejects_an_ideal_of_another_algebra(t2, kkk):
    # T2's corner trace ideal is an ideal of k x k x k's space too, but not
    # one of its ideals; the stabilization must not be reached
    with pytest.raises(ValueError, match="different algebra"):
        TorsionTheory.from_ideal(kkk, two_sided_ideal_closure(t2, [(0, 0, 1)]))


def test_torsion_submodule_of_regular(theory, t2_regular):
    t = torsion_submodule(theory, t2_regular)
    assert t.basis == Basis.span(GF2, 3, [E11, E12])


def test_torsion_flags_on_simples(theory, s1, s2):
    assert is_torsion(theory, s1)
    assert not is_torsion_free(theory, s1)
    assert is_torsion_free(theory, s2)
    assert not is_torsion(theory, s2)


def test_zero_module_is_both(theory, t2):
    zero = LeftModule(t2, 0, [Matrix.zeros(GF2, 0, 0)] * 3)
    assert is_torsion(theory, zero)
    assert is_torsion_free(theory, zero)


def test_trivial_theories(everything_torsion, nothing_torsion, t2_regular):
    assert is_torsion(everything_torsion, t2_regular)
    assert is_torsion_free(nothing_torsion, t2_regular)


def test_closedness_values(theory, s1, s2, t2_regular, p2):
    assert is_closed(theory, s2)
    assert not is_closed(theory, s1)
    assert not is_closed(theory, t2_regular)
    assert not is_closed(theory, p2)


def test_closedness_witness_shape(theory, s2):
    res = closedness_map(theory, s2)
    assert res.closed
    assert res.alpha.rows == res.alpha.cols == 1
    assert res.alpha.is_invertible()


def test_full_ideal_theory_closes_everything(nothing_torsion, s1, s2, t2_regular, p2):
    # alpha against the whole algebra is the free-module comparison
    for x in (s1, s2, t2_regular, p2):
        res = closedness_map(nothing_torsion, x)
        assert res.closed
        assert res.alpha.rows == x.dim


def _m3q_corner_cases():
    """The M3(Q) corner at e11: its two theories, with the R-side modules
    V, V+V, R, R+V (V the column module) and the S-side S, S^2, S^3, each
    also conjugated by a seeded signed permutation."""
    r = full_matrix_algebra(QQ, 3)
    ctx = corner_context(r, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    t_i, t_j = context_theories(ctx)
    v = LeftModule(r, 3, [Matrix(QQ, [[Fraction(int((a, b) == (i, j))) for b in range(3)]
                                      for a in range(3)], cols=3) for i in range(3) for j in range(3)])
    reg, s1 = regular_module(r), regular_module(ctx.S)
    s2 = direct_sum(s1, s1)
    rng = random.Random(1)

    def with_conjugates(mods):
        out = list(mods)
        for m in mods:
            perm = list(range(m.dim))
            rng.shuffle(perm)
            p = Matrix(QQ, [[Fraction(rng.choice((1, -1)) if j == perm[i] else 0) for j in range(m.dim)]
                            for i in range(m.dim)], cols=m.dim)
            out.append(LeftModule(m.algebra, m.dim, [p @ a @ p.transpose() for a in m.action]))
        return out

    return [(t_i, with_conjugates([v, direct_sum(v, v), reg, direct_sum(reg, v)])),
            (t_j, with_conjugates([s1, s2, direct_sum(s2, s1)]))]


def _closedness_cases():
    """(theory, modules): the T2/GF(2) <= 3 catalog under the corner,
    zero and full theories, both sides of the T2/GF(3) corner at e22 with
    their catalogs <= 3, and the M3(Q) corner's modules."""
    t2 = upper_triangular_algebra(GF2, 2)
    cat = build_catalog(t2, 3).modules
    cases = [(TorsionTheory.from_ideal(t2, i), cat) for i in (
        trace_ideals(corner_context(t2, E22))[0], Ideal(t2, Basis.zero(GF2, 3)),
        two_sided_ideal_closure(t2, [t2.unit]))]
    ctx = corner_context(upper_triangular_algebra(Field.gf(3), 2), (0, 0, 1))
    t_i, t_j = context_theories(ctx)
    cases += [(t_i, build_catalog(ctx.R, 3).modules), (t_j, build_catalog(ctx.S, 3).modules)]
    return cases + _m3q_corner_cases()


@pytest.mark.parametrize("tt, modules", _closedness_cases(),
                         ids=["T2-GF2-corner", "T2-GF2-zero", "T2-GF2-full", "T2-GF3-R", "T2-GF3-S",
                              "M3Q-R", "M3Q-S"])
def test_closedness_and_localize_match_the_hom_module_construction(tt, modules):
    for x in modules:
        res = closedness_map(tt, x)
        closed, alpha, hom, _ = closedness_via_hom_module(tt, x)
        assert (res.closed, res.alpha, res.hom.basis) == (closed, alpha, hom.basis)
        loc = localize(tt, x)
        module, canonical, hom, _ = localize_via_hom_module(tt, x)
        assert (loc.module, loc.canonical, loc.hom.basis) == (module, canonical, hom.basis)


def test_localize_regular_gives_the_vertex_two_simple(theory, t2_regular, s2):
    loc = localize(theory, t2_regular)
    assert loc.module.dim == 1
    assert is_isomorphic(loc.module, s2).found
    assert kernel_basis(loc.canonical) == loc.torsion.basis
    assert loc.torsion.basis.dim == 2


def test_localize_torsion_module_is_zero(theory, s1):
    assert localize(theory, s1).module.dim == 0


def test_localize_closed_module_is_iso(theory, s2):
    loc = localize(theory, s2)
    assert loc.canonical.rows == loc.canonical.cols == 1
    assert loc.canonical.is_invertible()


def test_localization_idempotent_up_to_iso(theory, s1, s2, t2_regular, p2):
    for x in (s1, s2, t2_regular, p2):
        once = localize(theory, x).module
        twice = localize(theory, once).module
        assert is_isomorphic(once, twice).found


def test_quotient_by_torsion_is_torsion_free(theory, t2_regular, p2):
    for x in (t2_regular, p2):
        t = torsion_submodule(theory, x)
        quo, _ = quotient_module(x, t.basis)
        assert torsion_submodule(theory, quo).basis.dim == 0


def test_power_chain_detects_filtration(theory, t2_regular, s1, s2):
    assert [b.dim for b in ideal_power_chain(theory, t2_regular)] == [3, 2]
    assert [b.dim for b in ideal_power_chain(theory, s1)] == [1, 0]
    assert [b.dim for b in ideal_power_chain(theory, s2)] == [1]
    # the chain bottoms out at zero exactly on torsion modules
    for x in (t2_regular, s1, s2):
        chain = ideal_power_chain(theory, x)
        assert (chain[-1].dim == 0) == is_torsion(theory, x)


def test_oracle_trivial_when_nothing_is_torsion(nothing_torsion, s1, t2_regular):
    verdict = rel_injective_oracle(nothing_torsion, s1, t2_regular)
    assert bool(verdict) and verdict.exhaustive


def test_oracle_corner_theory_regular_ambient(theory, s1, s2, t2_regular):
    # dense submodules of the regular module all contain the span of
    # e12, e22; homs out of it into either simple leave nothing to extend
    for target in (s1, s2):
        verdict = rel_injective_oracle(theory, target, t2_regular)
        assert bool(verdict)
        assert verdict.exhaustive
        assert verdict.failures == ()


def test_oracle_finds_genuine_failure(everything_torsion, s1, t2_regular):
    # with everything torsion the oracle is plain injectivity testing, and
    # the vertex-1 simple is not injective: the identity on the socle copy
    # of S1 inside the regular module cannot extend
    verdict = rel_injective_oracle(everything_torsion, s1, t2_regular)
    assert not verdict
    assert verdict.exhaustive
    subs = [basis for basis, _ in verdict.failures]
    assert Basis.span(GF2, 3, [E12]) in subs


def test_oracle_agreement_with_closedness(theory, s1, s2, t2_regular, p2):
    for x in (s1, s2, t2_regular, p2):
        expected = is_torsion_free(theory, x) and bool(
            rel_injective_oracle(theory, x, regular_module(theory.algebra)))
        assert is_closed(theory, x) == expected


def test_oracle_sampling_fallback(theory, t2_regular, s2):
    big = direct_sum(t2_regular, direct_sum(t2_regular, t2_regular))
    verdict = rel_injective_oracle(theory, s2, big, samples=40)
    assert not verdict.exhaustive
    assert bool(verdict)


def test_closed_via_eta_matches_alpha_test(corner, theory, s1, s2, t2_regular, p2):
    for x in (s1, s2, t2_regular, p2):
        assert closed_via_eta(corner, x) == is_closed(theory, x)


def test_closed_via_eta_strict_context(m2):
    ctx = corner_context(m2, (GF2.one, GF2.zero, GF2.zero, GF2.zero))
    reg = regular_module(m2)
    for x in (reg, direct_sum(reg, reg)):
        assert closed_via_eta(ctx, x)


def _whole_algebra_cases():
    """(theory, modules) with Iinf the whole algebra: T2/GF(2) <= 3 and
    M2/GF(2) <= 4 under the ideal R, and both sides of the M3(Q) corner."""
    cases = []
    for alg, max_dim in ((upper_triangular_algebra(GF2, 2), 3), (full_matrix_algebra(GF2, 2), 4)):
        whole = two_sided_ideal_closure(alg, [alg.unit])
        cases.append((TorsionTheory.from_ideal(alg, whole), build_catalog(alg, max_dim).modules))
    return cases + _m3q_corner_cases()


@pytest.mark.parametrize("tt, mods", _whole_algebra_cases(), ids=["T2-GF2", "M2-GF2", "M3Q-R", "M3Q-S"])
def test_whole_algebra_is_closed_solves_no_hom_space(monkeypatch, tt, mods):
    # the unit decides closedness: is_closed solves no intertwining system,
    # counted at the kernel every hom_space solve calls; closedness_map,
    # which only localize builds here, solves Hom_R(R, X) like the oracle
    assert tt.stable_ideal.dim == tt.algebra.dim
    solves = []
    solve = modules_layer.sparse_kernel_basis

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(modules_layer, "sparse_kernel_basis", counted)
    assert all(is_closed(tt, x) for x in mods)
    assert solves == []
    monkeypatch.undo()
    for x in mods:
        res = closedness_map(tt, x)
        closed, alpha, hom, _ = closedness_via_hom_module(tt, x)
        assert (res.closed, res.alpha, res.hom.basis) == (closed, alpha, hom.basis)
        assert res.closed


def _trace_ideal_theories():
    """Both corner theories of T2/GF(2) at e22, T3/GF(3) at e33, M2/GF(2)
    and M3(Q) at e11 and T3(Q) at e22, and the radical of T3/GF(2)
    (exponent 3, Iinf = 0)."""
    gf3 = Field.gf(3)
    corners = [(upper_triangular_algebra(GF2, 2), E22),
               (upper_triangular_algebra(gf3, 3), (0, 0, 0, 0, 0, 1)),
               (full_matrix_algebra(GF2, 2), (1, 0, 0, 0)),
               (full_matrix_algebra(QQ, 3), (1, 0, 0, 0, 0, 0, 0, 0, 0)),
               (upper_triangular_algebra(QQ, 3), (0, 0, 0, 1, 0, 0))]
    theories = [tt for alg, e in corners for tt in context_theories(corner_context(alg, e))]
    t3 = upper_triangular_algebra(GF2, 3)
    radical = two_sided_ideal_closure(t3, [t3.basis_vector(1), t3.basis_vector(4)])
    return theories + [TorsionTheory.from_ideal(t3, radical)]


@pytest.mark.parametrize("tt", _trace_ideal_theories(),
                         ids=["T2-GF2-R", "T2-GF2-S", "T3-GF3-R", "T3-GF3-S", "M2-GF2-R", "M2-GF2-S",
                              "M3Q-R", "M3Q-S", "T3Q-R", "T3Q-S", "T3-GF2-radical"])
def test_ideal_bimodule_matches_the_product_construction(tt):
    assert tt.ideal_bimodule == ideal_bimodule_by_products(tt)


def test_from_ideal_checks_idempotency_above_exponent_one(monkeypatch):
    # a stabilization that claims exponent 2 for an ideal that is not
    # idempotent is caught by the one product from_ideal forms
    t3 = upper_triangular_algebra(GF2, 3)
    radical = two_sided_ideal_closure(t3, [t3.basis_vector(1), t3.basis_vector(4)])
    assert ideal_product(t3, radical, radical) != radical
    monkeypatch.setattr(torsion_layer, "stabilize_ideal", lambda a, i: (radical, 2))
    with pytest.raises(AssertionError, match="^stabilized ideal is not idempotent$"):
        TorsionTheory.from_ideal(t3, radical)


def test_from_ideal_forms_one_ideal_product_per_theory_at_exponent_one(monkeypatch, t2, theory):
    calls = []

    def counted(a, left, right):
        calls.append((left, right))
        return ideal_product(a, left, right)

    for layer in (algebra_layer, torsion_layer):
        monkeypatch.setattr(layer, "ideal_product", counted)
    # exponent 1: stabilize_ideal's stop test is the idempotency check
    assert TorsionTheory.from_ideal(t2, theory.ideal).exponent == 1
    assert calls == [(theory.ideal, theory.ideal)]
    # exponent 2: the powers I.I and 0.I, then Iinf.Iinf once
    calls.clear()
    radical = two_sided_ideal_closure(t2, [E12])
    tt = TorsionTheory.from_ideal(t2, radical)
    assert tt.exponent == 2
    assert calls[-1] == (tt.stable_ideal, tt.stable_ideal) and len(calls) == 3


def test_whole_algebra_theory_forms_no_products(monkeypatch):
    # at I = R the unit decides: no ideal power, no idempotency product and
    # no coordinates of the products with Iinf's basis
    calls = []

    def counted(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for layer in (algebra_layer, torsion_layer):
        for name in ("ideal_product", "_dot_products"):
            monkeypatch.setattr(layer, name, counted(name, getattr(layer, name)))
    for alg in (upper_triangular_algebra(GF2, 2), full_matrix_algebra(GF2, 2),
                full_matrix_algebra(QQ, 3), upper_triangular_algebra(QQ, 3)):
        whole = two_sided_ideal_closure(alg, [alg.unit])
        calls.clear()
        tt = TorsionTheory.from_ideal(alg, whole)
        assert calls == []
        assert (tt.exponent, tt.stable_ideal) == (1, whole)
        assert tt.ideal_bimodule == ideal_bimodule_by_products(tt)
    # a proper ideal still forms its powers: the radical of T3/GF(2) is
    # nilpotent of index 3
    t3 = upper_triangular_algebra(GF2, 3)
    radical = two_sided_ideal_closure(t3, [t3.basis_vector(1), t3.basis_vector(4)])
    calls.clear()
    tt = TorsionTheory.from_ideal(t3, radical)
    assert (tt.exponent, tt.stable_ideal.dim) == (3, 0)
    assert "ideal_product" in calls and "_dot_products" in calls


def _whole_side_cases():
    """(context, theory, modules) for each corner side whose trace ideal is
    the whole algebra, with the context reversed on the S side: both sides
    of the M2/GF(2) corner at e11 (catalogs <= 4 and <= 3), the S side of
    the T2/GF(2) corner at e22 (<= 3), and both sides of the M3(Q) corner."""
    cases = []
    for alg, e in ((full_matrix_algebra(GF2, 2), (1, 0, 0, 0)), (upper_triangular_algebra(GF2, 2), E22)):
        ctx = corner_context(alg, e)
        for side, max_dim in ((ctx, 4), (reverse_context(ctx), 3)):
            tt = context_theories(side)[0]
            if tt.stable_ideal.dim == side.R.dim:
                cases.append((side, tt, build_catalog(side.R, max_dim).modules))
    m3q = corner_context(full_matrix_algebra(QQ, 3), (1, 0, 0, 0, 0, 0, 0, 0, 0))
    (t_i, r_mods), (t_j, s_mods) = _m3q_corner_cases()
    return cases + [(m3q, t_i, r_mods), (reverse_context(m3q), t_j, s_mods)]


@pytest.mark.parametrize("ctx, tt, mods", _whole_side_cases(),
                         ids=["M2-GF2-R", "M2-GF2-S", "T2-GF2-S", "M3Q-R", "M3Q-S"])
def test_whole_algebra_is_closed_builds_no_closedness_map(monkeypatch, ctx, tt, mods):
    assert tt.stable_ideal.dim == tt.algebra.dim
    calls, real = [], closedness_map
    monkeypatch.setattr(torsion_layer, "closedness_map", lambda *args: calls.append(args) or real(*args))
    verdicts = [is_closed(tt, x) for x in mods]
    assert calls == []
    monkeypatch.undo()
    assert verdicts == [closedness_map(tt, x).closed for x in mods] == [closed_via_eta(ctx, x) for x in mods]
    assert all(verdicts)
    # the fast path still rejects a module over another algebra
    other = regular_module(upper_triangular_algebra(Field.gf(3), 2))
    with pytest.raises(ValueError, match="wrong algebra"):
        is_closed(tt, other)


def _closedness_cases():
    cases = []
    for n, p in ((2, 2), (2, 3), (3, 2)):
        alg = upper_triangular_algebra(Field.gf(p), n)
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            if alg.multiply(e, e) != e:
                continue
            ctx = corner_context(alg, e)
            for tt, side in zip(context_theories(ctx), (ctx.R, ctx.S)):
                cases.append(pytest.param(tt, side, id=f"T{n}/GF({p}) e{i} {'RS'[side != ctx.R]}"))
    t3 = upper_triangular_algebra(Field.gf(2), 3)
    for gens in ((0, 4), (1, 2), (1, 4), (1, 5)):
        ideal = two_sided_ideal_closure(t3, [t3.basis_vector(g) for g in gens])
        cases.append(pytest.param(TorsionTheory.from_ideal(t3, ideal), t3, id=f"T3/GF(2) ideal{gens}"))
    return cases


@pytest.mark.parametrize("tt, alg", _closedness_cases())
def test_closedness_is_hom_and_ext_against_r_mod_iinf(tt, alg):
    # X is closed iff Hom(R/Iinf, X) = 0 and Ext^1(R/Iinf, X) = 0
    # (Stenstrom, Rings of Quotients, ch. IX): a third route, with no
    # radical, on every module to dim 3, at exponents 1, 2 and 3
    r_mod = quotient_module(regular_module(alg), tt.stable_ideal.basis)[0]
    for x in build_catalog(alg, 3):
        expected = hom_space(r_mod, x).dim == 0 and extension_space(x, r_mod).dim == 0
        assert closedness_map(tt, x).closed == expected
