import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moritakit.modules as modules
from moritakit.exactlin import QQ, Basis, Field, Matrix
from moritakit.algebra import full_matrix_algebra, two_sided_ideal_closure, upper_triangular_algebra
from moritakit.context import corner_context
from moritakit.equivalence import build_catalog
from moritakit.modules import (
    DEFAULT_LATTICE_BUDGET,
    BudgetExceeded,
    Bimodule,
    LeftModule,
    Submodule,
    annihilator,
    direct_sum,
    enumerate_submodules,
    extension_space,
    hom_module,
    hom_space,
    ideal_action_image,
    is_isomorphic,
    middle_term,
    quotient_module,
    regular_bimodule,
    regular_module,
    sample_submodules,
    submodule_lattice,
    submodule_supply,
    tensor_over,
    validate_module,
)

from bruteforce import brute_annihilator, brute_hom, brute_submodules, extension_space_dense, textbook_action
from test_equivalence import _radical_square_zero

GF2 = Field.gf(2)
E11, E12, E22 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_regular_module_validates(t2, t2_regular):
    assert validate_module(t2_regular) == []
    assert t2_regular.dim == t2.dim


def test_regular_bimodule_validates(t2):
    assert validate_module(regular_bimodule(t2)) == []


def test_validate_catches_broken_action(t2, t2_regular):
    mats = list(t2_regular.action)
    mats[1] = Matrix.identity(GF2, 3)  # e12 acting as the identity is wrong
    broken = LeftModule(t2, 3, mats)
    report = validate_module(broken)
    assert any("action law" in line for line in report)


def test_simples_validate(s1, s2):
    assert validate_module(s1) == []
    assert validate_module(s2) == []


def test_p2_structure(p2):
    assert validate_module(p2) == []
    assert p2.dim == 2


def test_direct_sum_validates(s1, s2, p2):
    m = direct_sum(direct_sum(s1, s2), p2)
    assert m.dim == 4
    assert validate_module(m) == []


def test_hom_from_regular_counts_dimension(t2_regular, s1, s2, p2):
    # maps out of the free rank-1 module correspond to elements of the target
    for target in (s1, s2, p2, t2_regular):
        assert hom_space(t2_regular, target).dim == target.dim


def test_hom_between_simples(s1, s2):
    assert hom_space(s1, s2).dim == 0
    assert hom_space(s2, s1).dim == 0
    assert hom_space(s1, s1).dim == 1


def test_hom_p2_to_simples(p2, s1, s2):
    assert hom_space(p2, s1).dim == 0
    assert hom_space(p2, s2).dim == 1


def test_hom_agrees_with_bruteforce(t2_regular, s1, s2, p2):
    for src in (s1, s2, p2):
        for tgt in (s1, s2, p2):
            brute = brute_hom(src, tgt)
            h = hom_space(src, tgt)
            assert len(brute) == GF2.p ** h.dim
            for f in h.matrices:
                assert f in brute


def test_hom_maps_intertwine(p2, s2):
    h = hom_space(p2, s2)
    for f in h.matrices:
        for a, b in zip(p2.action, s2.action):
            assert (f @ a) == (b @ f)


def test_hom_module_structure(t2, t2_regular, s2):
    # Hom(T2, X) as a left module over T2 via (r.f)(a) = f(a r)
    bim = regular_bimodule(t2)
    mod, hom = hom_module(bim, s2)
    assert mod.dim == hom.dim == 1
    assert validate_module(mod) == []


ACTION_ALGEBRAS = [upper_triangular_algebra(GF2, 2), upper_triangular_algebra(Field.gf(3), 2),
                   full_matrix_algebra(QQ, 2)]


@st.composite
def action_cases(draw):
    """A regular module or its square, and a zero, unit, basis or general
    coefficient vector (fractions over Q)."""
    a = draw(st.sampled_from(ACTION_ALGEBRAS))
    f = a.field
    m = draw(st.sampled_from([regular_module(a), direct_sum(regular_module(a), regular_module(a))]))
    kind = draw(st.sampled_from(["zero", "unit", "basis", "general"]))
    if kind == "zero":
        return m, (f.zero,) * a.dim
    if kind == "unit":
        return m, a.unit
    if kind == "basis":
        return m, a.basis_vector(draw(st.integers(0, a.dim - 1)))
    nums = st.integers(-3, 3)
    scalar = nums.map(f.of_int) if f.p else st.builds(Fraction, nums, st.integers(1, 3))
    return m, tuple(draw(scalar) for _ in range(a.dim))


@given(action_cases())
@settings(max_examples=200, deadline=None)
def test_action_of_matches_the_textbook_combination(case):
    m, v = case
    assert m.action_of(v) == textbook_action(m, v)
    regular = regular_bimodule(m.algebra)
    assert m.algebra.left_mult_matrix(v) == textbook_action(regular.left_module(), v)
    assert m.algebra.right_mult_matrix(v) == textbook_action(regular.right_module(), v)


def test_action_of_a_basis_vector_is_the_action_matrix(t2_regular):
    for i, act in enumerate(t2_regular.action):
        assert t2_regular.action_of(t2_regular.algebra.basis_vector(i)) is act


@pytest.mark.parametrize("alg, max_dim, sampling", [
    pytest.param(upper_triangular_algebra(GF2, 2), 3, False, id="T2-GF2"),
    pytest.param(_radical_square_zero(GF2, 2), 3, False, id="GF2[x,y]/(x,y)^2"),
    pytest.param(upper_triangular_algebra(Field.gf(3), 2), 3, False, id="T2-GF3"),
    pytest.param(upper_triangular_algebra(QQ, 2), 2, True, id="T2-Q-sampled"),
])
def test_extension_space_matches_dense_rows_on_catalog_pairs(alg, max_dim, sampling):
    cat = build_catalog(alg, max_dim, allow_sampling=sampling).modules
    for s in cat:
        for t in cat:
            assert extension_space(s, t) == extension_space_dense(s, t)


def test_tensor_regular_absorbs(t2, t2_regular):
    # R (x)_R R is R again: dim matches and the bimodule laws hold
    bim = regular_bimodule(t2)
    t = tensor_over(t2, bim, bim)
    assert t.dim == t2.dim
    assert validate_module(t.as_bimodule()) == []


@pytest.mark.parametrize("alg", [
    pytest.param(upper_triangular_algebra(GF2, 2), id="T2-GF2"),
    pytest.param(upper_triangular_algebra(Field.gf(3), 2), id="T2-GF3"),
    pytest.param(full_matrix_algebra(QQ, 3), id="M3-Q"),
])
def test_tensor_relations_annihilate_hom_into_the_dual(alg):
    # (M (x)_A N)* = Hom_A(N, M*), M* the left module with actions M_a^T:
    # a balanced form on the raw product is a map N -> M* read row-major in
    # the tensor's (i, j) |-> i*dim N + j indexing, so the relation span and
    # the vectorized hom space are orthogonal complements
    f = alg.field
    e11 = alg.basis_vector(0)
    ctx = corner_context(alg, e11)
    catalogs = {}
    for bim in (regular_bimodule(alg), ctx.M, ctx.N):
        middle = bim.right_algebra
        if middle not in catalogs:
            catalogs[middle] = build_catalog(middle, 3, allow_sampling=not f.is_prime_field).modules
        dual = LeftModule(middle, bim.dim, [act.transpose() for act in bim.right_action])
        for n in catalogs[middle]:
            relations = tensor_over(middle, bim, n).relations
            hom = hom_space(n, dual)
            size = bim.dim * n.dim
            assert relations.dim + hom.dim == size
            products = Matrix(f, relations.vectors, cols=size) @ Matrix.from_cols(f, hom.basis.vectors, rows=size)
            assert not any(x for row in products.entries for x in row)


def test_tensor_pure_tensor_unit(t2):
    bim = regular_bimodule(t2)
    t = tensor_over(t2, bim, bim)
    # 1 (x) x and x (x) 1 agree in the quotient
    for i in range(t2.dim):
        x = t2.basis_vector(i)
        assert t.pure_tensor(t2.unit, x) == t.pure_tensor(x, t2.unit)


def test_tensor_dim_invariant_under_basis_permutation(t2):
    bim = regular_bimodule(t2)
    base_dim = tensor_over(t2, bim, bim).dim
    # permute the basis of the left factor by conjugating all actions
    perm = Matrix(GF2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    inv = perm.inverse()
    left = Bimodule(
        t2,
        t2,
        3,
        [perm @ a @ inv for a in bim.left_action],
        [perm @ a @ inv for a in bim.right_action],
    )
    assert validate_module(left) == []
    assert tensor_over(t2, left, bim).dim == base_dim


def test_annihilator_of_trace_ideal(t2, t2_regular):
    ideal = two_sided_ideal_closure(t2, [E22])
    ann = annihilator(t2_regular, ideal.basis.vectors)
    assert ann.basis == Basis.span(GF2, 3, [E11, E12])
    assert ann.basis == brute_annihilator(t2_regular, ideal.basis.vectors)


def test_ideal_action_image(t2, t2_regular):
    ideal = two_sided_ideal_closure(t2, [E22])
    image = ideal_action_image(ideal, t2_regular)
    assert image.basis == Basis.span(GF2, 3, [E12, E22])


def test_extension_space_rejects_modules_over_different_algebras(s1, kkk):
    with pytest.raises(ValueError, match="over different algebras"):
        extension_space(s1, regular_module(kkk))


def test_middle_term_rejects_modules_over_different_algebras(s1, kkk):
    other = regular_module(kkk)
    with pytest.raises(ValueError, match="over different algebras"):
        middle_term(s1, other, (0,) * (3 * other.dim))


def test_ideal_action_image_rejects_a_module_over_another_algebra(t2, kkk):
    ideal = two_sided_ideal_closure(t2, [E22])
    with pytest.raises(ValueError, match="over different algebras"):
        ideal_action_image(ideal, regular_module(kkk))


def test_submodule_stability_enforced(t2_regular):
    with pytest.raises(ValueError):
        Submodule(t2_regular, Basis.span(GF2, 3, [E22]))


def test_enumerate_submodules_of_regular(t2_regular):
    subs = enumerate_submodules(t2_regular)
    assert len(subs) == 7
    brute = brute_submodules(t2_regular)
    assert sorted(s.basis.vectors for s in subs) == sorted(b.vectors for b in brute)


def test_submodule_lattice_agrees(t2_regular, p2, s1, s2):
    for mod in (t2_regular, p2, direct_sum(s1, s2)):
        via_enum = {s.basis for s in enumerate_submodules(mod)}
        via_lattice = {s.basis for s in submodule_lattice(mod)}
        assert via_enum == via_lattice


def test_one_enumerator_agrees_with_bruteforce_beyond_gf2():
    # over GF(3) and GF(5) a vector off the pivots must be rescaled to a
    # projective point, which GF(2) never needs
    mods = list(build_catalog(upper_triangular_algebra(Field.gf(3), 2), 3))
    simple = next(m for m in mods if m.dim == 1)
    mods.append(direct_sum(simple, direct_sum(simple, simple)))
    mods += build_catalog(upper_triangular_algebra(Field.gf(5), 2), 2, budget=5 ** 6)
    checked = 0
    for mod in mods:
        if mod.algebra.field.p ** mod.dim > 81:
            continue
        brute = brute_submodules(mod)
        assert [s.basis for s in submodule_lattice(mod)] == brute
        assert [s.basis for s in enumerate_submodules(mod)] == brute
        checked += 1
    assert checked == 21


def test_enumeration_budget(t2, s1):
    big = s1
    for _ in range(6):
        big = direct_sum(big, s1)  # dim 7 over GF(2): 2**7 > 81
    with pytest.raises(BudgetExceeded):
        enumerate_submodules(big)
    # explicit budget raises the cap
    assert len(enumerate_submodules(big, budget=2 ** 7)) > 0


def test_quotient_module_by_socle(t2, t2_regular, s2):
    soc = Basis.span(GF2, 3, [E11, E12])
    quo, proj = quotient_module(t2_regular, soc)
    assert quo.dim == 1
    assert validate_module(quo) == []
    assert is_isomorphic(quo, s2).found


def test_quotient_module_rejects_unstable(t2_regular):
    with pytest.raises(ValueError):
        quotient_module(t2_regular, Basis.span(GF2, 3, [E22]))


def test_iso_identity_shortcut(p2):
    res = is_isomorphic(p2, p2)
    assert res.found and res.exhaustive
    assert res.map_ == Matrix.identity(GF2, 2)


def test_iso_proven_none_for_distinct_dim2_modules(p2, s1, s2):
    res = is_isomorphic(p2, direct_sum(s1, s2))
    assert res.proven_none


def test_iso_dimension_mismatch(s1, p2):
    assert is_isomorphic(s1, p2).proven_none


def test_regular_decomposes(t2_regular, s1, p2):
    res = is_isomorphic(t2_regular, direct_sum(s1, p2))
    assert res.found
    f = res.map_
    assert f.is_invertible()
    for a, b in zip(t2_regular.action, direct_sum(s1, p2).action):
        assert (f @ a) == (b @ f)


def test_iso_found_after_random_conjugation(t2_regular):
    rng = random.Random(5)
    n = t2_regular.dim
    for _ in range(5):
        while True:
            p = Matrix(GF2, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
            if p.is_invertible():
                break
        inv = p.inverse()
        twisted = LeftModule(t2_regular.algebra, n, [p @ a @ inv for a in t2_regular.action])
        assert validate_module(twisted) == []
        res = is_isomorphic(t2_regular, twisted)
        assert res.found


def test_zero_module(t2, s1):
    zero = LeftModule(t2, 0, [Matrix.zeros(GF2, 0, 0)] * 3)
    assert validate_module(zero) == []
    assert is_isomorphic(zero, zero).found
    assert is_isomorphic(zero, s1).proven_none
    assert hom_space(zero, s1).dim == 0


def _modules_beyond_gf2():
    """The modules with p**dim <= 81 among the T2/GF(3) <= 3 and T2/GF(5)
    <= 2 catalogs, plus a 3-dim semisimple GF(3) module."""
    mods = list(build_catalog(upper_triangular_algebra(Field.gf(3), 2), 3))
    simple = next(m for m in mods if m.dim == 1)
    mods.append(direct_sum(simple, direct_sum(simple, simple)))
    mods += build_catalog(upper_triangular_algebra(Field.gf(5), 2), 2, budget=5 ** 6)
    return [m for m in mods if m.algebra.field.p ** m.dim <= 81]


def test_submodule_lattice_runs_no_stability_test(monkeypatch, t2_regular, p2, s1, s2):
    # the walk forms only sums of cyclic submodules, which are stable by
    # construction, so no member passes through Submodule's rank test
    checked = []
    init = Submodule.__init__

    def counted(self, parent, basis):
        checked.append(basis)
        init(self, parent, basis)

    monkeypatch.setattr(Submodule, "__init__", counted)
    for mod in [t2_regular, p2, direct_sum(s1, s2)] + _modules_beyond_gf2():
        subs = submodule_lattice(mod)
        assert [s.basis for s in subs] == brute_submodules(mod)
        assert all(type(s) is Submodule and s.parent is mod for s in subs)
    assert checked == []


def test_bounded_supply_is_the_lattice_cut_at_each_codimension():
    mods = _modules_beyond_gf2()
    assert len(mods) == 21
    for mod in mods:
        subs, exhaustive = submodule_supply(mod, 81, None, 0)
        assert exhaustive and [s.basis for s in subs] == brute_submodules(mod)
        sampled, exhaustive = submodule_supply(mod, 0, 8, 0)
        assert not exhaustive
        assert [s.basis for s in sampled] == [s.basis for s in sample_submodules(mod, 8, 0)]


def test_zero_module_over_q_is_walked_exactly():
    # Q^0 has one point, so its walk fits the budget and proves its one submodule
    reg = regular_module(upper_triangular_algebra(QQ, 2))
    zero = quotient_module(reg, Basis.full(QQ, reg.dim))[0]
    subs, exhaustive = submodule_supply(zero, DEFAULT_LATTICE_BUDGET, 8, 0)
    assert exhaustive and len(subs) == 1


@pytest.mark.parametrize("field", [GF2, Field.gf(3), QQ], ids=["GF2", "GF3", "Q"])
@pytest.mark.parametrize("budget", [1, DEFAULT_LATTICE_BUDGET])
def test_modules_of_dim_at_most_one_are_walked_exactly(monkeypatch, field, budget):
    # a line has one projective point over every field, so a module of dim
    # <= 1 has only 0 and itself, and its walk fits any budget >= 1
    def no_sampling(*args):
        raise AssertionError("sample_submodules called")

    monkeypatch.setattr(modules, "sample_submodules", no_sampling)
    reg = regular_module(upper_triangular_algebra(field, 2))
    e11 = (field.one, field.zero, field.zero)
    mods = [quotient_module(reg, Basis.full(field, 3))[0],
            quotient_module(reg, Basis.span(field, 3, [e11, (field.zero, field.one, field.zero)]))[0],
            Submodule(reg, Basis.span(field, 3, [e11])).as_module(),
            regular_module(full_matrix_algebra(field, 1))]
    assert [m.dim for m in mods] == [0, 1, 1, 1]
    for m in mods:
        subs, exhaustive = submodule_supply(m, budget, 64, 0)
        assert exhaustive
        assert [s.basis for s in subs] == [Basis.zero(field, m.dim), Basis.full(field, m.dim)][:m.dim + 1]
