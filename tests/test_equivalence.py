"""Engine tests: catalogs, the four verifiers, and their cross-agreements."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moritakit.context as context_module
import moritakit.equivalence as equivalence
import moritakit.exactlin as exactlin
import moritakit.graded as graded
import moritakit.modules as modules
from moritakit.algebra import (
    Algebra,
    full_matrix_algebra,
    two_sided_ideal_closure,
    upper_triangular_algebra,
)
from moritakit.context import (
    MoritaContext,
    compose_contexts,
    contexts_isomorphic,
    corner_context,
    identity_context,
    reverse_context,
)
from moritakit.equivalence import (
    Catalog,
    build_catalog,
    context_theories,
    hom_functor_to_r,
    hom_functor_to_s,
    is_I_projective_oracle,
    user_catalog,
    verify_kato_muller,
    verify_one_epi,
    verify_projective_equivalence,
    verify_strict_equivalence,
)
from moritakit.exactlin import Field, Matrix
from moritakit.modules import (
    IsoResult,
    LeftModule,
    direct_sum,
    extension_space,
    is_isomorphic,
    is_simple,
    iso_invariant,
    middle_term,
    regular_module,
    submodule_lattice,
    sum_invariant,
    validate_module,
)
from moritakit.graded import (
    FiniteGroup,
    GradedAlgebra,
    build_graded_catalog,
    graded_corner_context,
    verify_graded_kato_muller,
)
from moritakit.torsion import TorsionTheory, localize

from bruteforce import (
    brute_catalog,
    count_module_classes,
    extension_space_dense,
    first_invertible_lex,
    lifting_by_composites,
    projective_by_simples,
    torsion_simples,
)

GF2 = Field.gf(2)
GF3 = Field.gf(3)
E22 = (GF2.zero, GF2.zero, GF2.one)
E11_M2 = (GF2.one, GF2.zero, GF2.zero, GF2.zero)


@pytest.fixture(scope="module")
def t2_corner(t2):
    return corner_context(t2, E22)


@pytest.fixture(scope="module")
def m2_corner(m2):
    return corner_context(m2, E11_M2)


@pytest.fixture(scope="module")
def cat_t2(t2):
    return build_catalog(t2, 3)


@pytest.fixture(scope="module")
def cat_m2(m2):
    return build_catalog(m2, 4)


@pytest.fixture(scope="module")
def cat_corner_s(t2_corner):
    return build_catalog(t2_corner.S, 3)


@pytest.fixture(scope="module")
def cat_m2_s(m2_corner):
    return build_catalog(m2_corner.S, 2)


def test_catalog_counts_are_frozen(t2, m2, cat_t2, cat_m2):
    # 1 zero + 2 simples + 4 classes of dim 2 + 6 of dim 3
    assert len(cat_t2) == 13
    assert len(build_catalog(t2, 4)) == 22
    # matrix algebra: zero, the column module, and its square
    assert len(cat_m2) == 3
    assert [m.dim for m in cat_m2] == [0, 2, 4]


def test_catalog_over_one_dimensional_algebra(t2_corner):
    cat = build_catalog(t2_corner.S, 2)
    assert [m.dim for m in cat] == [0, 1, 2]


def test_catalog_dim_zero(t2):
    cat = build_catalog(t2, 0)
    assert len(cat) == 1 and cat.modules[0].dim == 0


def test_catalog_members_pairwise_nonisomorphic(cat_t2):
    mods = cat_t2.modules
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if mods[i].dim == mods[j].dim:
                assert not is_isomorphic(mods[i], mods[j]).found


def test_catalog_provenance_and_bounds(cat_t2):
    assert cat_t2.exhaustive
    assert cat_t2.provenance == "exhaustive-up-to-dim(3)"
    assert all(m.dim <= 3 for m in cat_t2)
    assert max(m.dim for m in cat_t2) == 3


def test_catalog_contains_the_nonsplit_extension(cat_t2, p2):
    assert any(m.dim == 2 and is_isomorphic(m, p2).found for m in cat_t2)


@pytest.fixture(scope="module")
def cat_t2_gf3():
    return build_catalog(upper_triangular_algebra(GF3, 2), 2)


@st.composite
def invertible_matrices(draw, field, n):
    """P = L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, so P is invertible."""
    def entry(lo):
        return field.of_int(draw(st.integers(lo, field.p - 1)))

    low = Matrix(field, [[field.one if i == j else (entry(0) if i > j else field.zero)
                          for j in range(n)] for i in range(n)], cols=n)
    up = Matrix(field, [[entry(1) if i == j else (entry(0) if i < j else field.zero)
                         for j in range(n)] for i in range(n)], cols=n)
    return low @ up


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_iso_invariant_survives_conjugation(cat_t2, cat_t2_gf3, data):
    cat = data.draw(st.sampled_from([cat_t2, cat_t2_gf3]))
    mod = data.draw(st.sampled_from(cat.modules))
    p = data.draw(invertible_matrices(cat.algebra.field, mod.dim))
    p_inv = p.inverse()
    conj = LeftModule(mod.algebra, mod.dim, [p @ a @ p_inv for a in mod.action])
    assert iso_invariant(conj) == iso_invariant(mod)


def test_catalog_dedup_never_searches_in_vain(t2, monkeypatch):
    calls = []
    real = equivalence.is_isomorphic

    def counting(m, n, *args, **kwargs):
        res = real(m, n, *args, **kwargs)
        calls.append(res.found)
        return res

    monkeypatch.setattr(equivalence, "is_isomorphic", counting)
    cat = build_catalog(t2, 4)
    assert len(cat) == 22
    assert calls and all(calls)


def _rebased(alg: Algebra, p_cols) -> Algebra:
    """alg written in the basis formed by the columns of p_cols."""
    f = alg.field
    n = alg.dim
    p = Matrix(f, [[f.of_int(x) for x in row] for row in p_cols], cols=n)
    p_inv = p.inverse()
    new_basis = p.columns()
    mul = [[p_inv.apply(alg.multiply(x, y)) for y in new_basis] for x in new_basis]
    return Algebra(f, n, mul, p_inv.apply(alg.unit))


def test_catalog_in_non_standard_basis_keeps_gabriel_counts():
    # unimodular: L U with L = [[1,0,0],[1,1,0],[-1,1,1]], U = [[1,1,-1],[0,1,1],[0,0,1]]
    t2 = _rebased(upper_triangular_algebra(GF3, 2), [[1, 1, -1], [1, 2, 0], [-1, 0, 3]])
    cat = build_catalog(t2, 3)
    per_dim = [sum(1 for m in cat if m.dim == d) for d in range(4)]
    assert per_dim == [1, 2, 4, 6]
    assert cat.provenance == "exhaustive-up-to-dim(3)"


def test_one_epi_computes_trace_ideals_once(m2_corner, cat_m2, cat_m2_s, monkeypatch):
    calls = []
    real = equivalence.trace_ideals

    def counting(ctx):
        calls.append(ctx)
        return real(ctx)

    monkeypatch.setattr(equivalence, "trace_ideals", counting)
    assert verify_one_epi(m2_corner, cat_m2, cat_m2_s).passed
    assert len(calls) == 1


def test_strict_verifier_passes_on_matrix_corner(m2_corner, cat_m2, cat_m2_s):
    report = verify_strict_equivalence(m2_corner, cat_m2, cat_m2_s)
    assert report.passed
    checks = {v.check for v in report.verdicts}
    assert "eta invertible" in checks
    assert "rho invertible" in checks
    assert "naturality square" in checks


def test_strict_verifier_passes_on_identity(t2, cat_t2):
    report = verify_strict_equivalence(identity_context(t2), cat_t2, cat_t2)
    assert report.passed


def test_strict_verifier_names_proper_ideal(t2_corner, cat_t2, cat_corner_s):
    report = verify_strict_equivalence(t2_corner, cat_t2, cat_corner_s)
    assert not report.passed
    notes = [v.note for v in report.failures()]
    assert any("dim 2 < 3" in n for n in notes)


def test_kato_muller_passes_on_corner(t2_corner, cat_t2, cat_corner_s):
    report = verify_kato_muller(t2_corner, cat_t2, cat_corner_s)
    assert report.passed
    # two checks per member plus the two trace-ideal summary lines
    assert len(report.verdicts) == 2 * (len(cat_t2) + len(cat_corner_s)) + 2
    notes = [v.note for v in report.verdicts]
    assert "I = 2-dim, idempotent (exponent 1)" in notes
    assert "J = S (dim 1)" in notes


def test_kato_muller_passes_on_identity(t2, cat_t2):
    report = verify_kato_muller(identity_context(t2), cat_t2, cat_t2)
    assert report.passed


def test_kato_muller_localizes_non_closed_members(t2_corner, cat_t2, cat_corner_s):
    report = verify_kato_muller(t2_corner, cat_t2, cat_corner_s)
    assert any("localized first" in v.note for v in report.verdicts)


def test_kato_muller_degenerate_context(t2, t2_corner, cat_t2, cat_corner_s):
    zero_phi = Matrix.zeros(GF2, t2.dim, t2_corner.M.dim * t2_corner.N.dim)
    zero_psi = Matrix.zeros(GF2, 1, t2_corner.N.dim * t2_corner.M.dim)
    degenerate = MoritaContext(t2, t2_corner.S, t2_corner.M, t2_corner.N, zero_phi, zero_psi)
    report = verify_kato_muller(degenerate, cat_t2, cat_corner_s)
    assert report.passed  # only the zero module is closed; everything collapses


def test_strict_and_kato_muller_agree_when_strict(m2_corner, cat_m2, cat_m2_s):
    assert verify_strict_equivalence(m2_corner, cat_m2, cat_m2_s).passed
    assert verify_kato_muller(m2_corner, cat_m2, cat_m2_s).passed


def test_hom_functor_kills_localization_difference(t2_corner, cat_t2):
    t_i, _ = context_theories(t2_corner)
    for x in cat_t2:
        fx = hom_functor_to_s(t2_corner, x)
        f_loc = hom_functor_to_s(t2_corner, localize(t_i, x).module)
        assert is_isomorphic(fx, f_loc).found


def test_engine_outputs_stay_in_catalogs(t2_corner, cat_t2, cat_corner_s):
    t_i, _ = context_theories(t2_corner)

    def member_of(mod, cat):
        return any(is_isomorphic(mod, m).found for m in cat if m.dim == mod.dim)

    for x in cat_t2:
        assert member_of(hom_functor_to_s(t2_corner, x), cat_corner_s)
        assert member_of(localize(t_i, x).module, cat_t2)
    for y in cat_corner_s:
        assert member_of(hom_functor_to_r(t2_corner, y), cat_t2)


def test_one_epi_passes_on_strict_corner(m2_corner, cat_m2, cat_m2_s):
    report = verify_one_epi(m2_corner, cat_m2, cat_m2_s)
    assert report.passed
    assert any(v.check == "evaluation counit invertible" for v in report.verdicts)


def test_one_epi_precondition_failure(t2_corner, cat_t2, cat_corner_s):
    report = verify_one_epi(t2_corner, cat_t2, cat_corner_s)
    assert not report.passed
    assert "dim 2 < 3" in report.failures()[0].note


def test_one_epi_on_reversed_corner(t2_corner, cat_t2, cat_corner_s):
    report = verify_one_epi(reverse_context(t2_corner), cat_corner_s, cat_t2)
    assert report.passed


def test_projective_oracle_values(t2_corner, cat_t2, s1, s2, p2, t2_regular):
    t_i, _ = context_theories(t2_corner)
    assert not is_I_projective_oracle(t_i, s2, cat_t2)
    assert is_I_projective_oracle(t_i, p2, cat_t2)
    assert is_I_projective_oracle(t_i, t2_regular, cat_t2)
    # the oracle alone can pass on a module the class filter later rejects
    assert is_I_projective_oracle(t_i, s1, cat_t2)


def test_projective_equivalence_corner_class_sizes(t2_corner, cat_t2, cat_corner_s):
    report = verify_projective_equivalence(t2_corner, cat_t2, cat_corner_s)
    assert report.passed
    notes = [v.note for v in report.verdicts if v.check == "projective class size"]
    assert notes == ["2 of 13 qualify", "4 of 4 qualify"]


def test_projective_equivalence_identity_all_qualify(t2, cat_t2):
    report = verify_projective_equivalence(identity_context(t2), cat_t2, cat_t2)
    assert report.passed
    notes = [v.note for v in report.verdicts if v.check == "projective class size"]
    assert notes == ["13 of 13 qualify", "13 of 13 qualify"]


def test_projective_equivalence_degenerate(t2, t2_corner, cat_t2, cat_corner_s):
    zero_phi = Matrix.zeros(GF2, t2.dim, t2_corner.M.dim * t2_corner.N.dim)
    zero_psi = Matrix.zeros(GF2, 1, t2_corner.N.dim * t2_corner.M.dim)
    degenerate = MoritaContext(t2, t2_corner.S, t2_corner.M, t2_corner.N, zero_phi, zero_psi)
    report = verify_projective_equivalence(degenerate, cat_t2, cat_corner_s)
    assert report.passed
    notes = [v.note for v in report.verdicts if v.check == "projective class size"]
    assert notes == ["1 of 13 qualify", "1 of 4 qualify"]


def test_isomorphic_contexts_same_summaries(t2, t2_corner, cat_t2, cat_corner_s):
    comp = compose_contexts(t2_corner, identity_context(t2_corner.S))
    assert contexts_isomorphic(comp, t2_corner).found
    for verifier in (verify_strict_equivalence, verify_kato_muller,
                     verify_one_epi, verify_projective_equivalence):
        assert (verifier(comp, cat_t2, cat_corner_s).passed
                == verifier(t2_corner, cat_t2, cat_corner_s).passed)


def test_sampled_catalog_flags_report(t2, t2_corner, cat_t2, cat_corner_s):
    pretend_sampled = Catalog(t2, cat_t2.modules, "sampled(seed=0)")
    relaxed = verify_kato_muller(t2_corner, pretend_sampled, cat_corner_s)
    assert relaxed.passed and relaxed.sampled


def test_sampled_round_trip_miss_is_flagged(t2_corner, cat_t2, cat_corner_s, monkeypatch):
    # a sampled search that misses disproves nothing: the report says so
    monkeypatch.setattr(equivalence, "is_isomorphic", lambda m, n: IsoResult(None, False))
    report = verify_kato_muller(t2_corner, cat_t2, cat_corner_s)
    trips = [v for v in report.verdicts if v.check == "round trip isomorphic"]
    assert len(trips) == len(cat_t2) + len(cat_corner_s)
    assert not any(v.passed for v in trips)
    assert all(v.note.endswith("sampled search (seed 0)") for v in trips)
    assert any(v.note == "localized first, now dim 1; sampled search (seed 0)" for v in trips)
    assert report.flags == ["sampled iso search (seed 0)"]
    # an exhaustive miss stays a plain failure
    monkeypatch.setattr(equivalence, "is_isomorphic", lambda m, n: IsoResult(None, True))
    report = verify_kato_muller(t2_corner, cat_t2, cat_corner_s)
    assert report.flags == [] and not report.passed
    assert not any("sampled" in v.note for v in report.verdicts)


def test_user_catalog_roundtrip(t2, s1, s2):
    cat = user_catalog(t2, [s1, s2])
    assert not cat.exhaustive
    assert cat.provenance == "user-supplied"
    assert len(cat) == 2


def test_report_failures_listing(t2_corner, cat_t2, cat_corner_s):
    report = verify_strict_equivalence(t2_corner, cat_t2, cat_corner_s)
    assert report.failures()
    assert all(not v.passed for v in report.failures())


def test_projective_verifier_walks_no_submodules(t2, t2_corner, monkeypatch):
    # the class test is one tensor product per module: no submodule of R,
    # R/I or a catalog module is walked
    cat_r = build_catalog(t2, 4)
    cat_s = build_catalog(t2_corner.S, 4)
    calls = []
    supply = equivalence.submodule_supply

    def counted(*args, **kwargs):
        calls.append(args[0].dim)
        return supply(*args, **kwargs)

    monkeypatch.setattr(equivalence, "submodule_supply", counted)
    report = verify_projective_equivalence(t2_corner, cat_r, cat_s)
    assert calls == []
    t_i, _ = context_theories(t2_corner)
    members = [i for i, p in enumerate(cat_r)
               if equivalence.ideal_action_image(t_i.ideal, p).basis.dim == p.dim
               and is_I_projective_oracle(t_i, p, cat_r)]
    assert report.verdicts[0].note == f"{len(members)} of {len(cat_r)} qualify"


@pytest.mark.parametrize("alg, idem, max_dim", [
    (upper_triangular_algebra(GF2, 2), 2, 3),
    (upper_triangular_algebra(GF3, 2), 2, 3),
    (full_matrix_algebra(GF2, 2), 0, 4),
    (upper_triangular_algebra(GF2, 3), 0, 3),
], ids=["T2/GF(2)", "T2/GF(3)", "M2/GF(2)", "T3/GF(2)"])
def test_projective_oracle_matches_composite_surjectivity(alg, idem, max_dim):
    # the hom-dimension count fails exactly the (X, K) whose composites
    # with X -> X/K miss Hom(P, X/K), on every catalog module of both
    # sides, ideal-full or not
    ctx = corner_context(alg, alg.basis_vector(idem))
    cats = (build_catalog(ctx.R, max_dim), build_catalog(ctx.S, max_dim))
    for tt, cat in zip(context_theories(ctx), cats):
        for p in cat:
            got = is_I_projective_oracle(tt, p, cat)
            assert got.exhaustive
            assert (got.verdict, got.failures) == lifting_by_composites(tt, p, cat)


def test_projective_verifier_tensors_twice_per_member(t2_corner, cat_t2, cat_corner_s,
                                                      monkeypatch):
    # each member's image N (x) P is the inner tensor product of its unit,
    # so the unit's two tensor products are formed once; the class test
    # forms Iinf (x) P once for each ideal-full catalog module and image
    t_i, t_j = context_theories(t2_corner)
    full_modules = full_images = 0
    for c, here, there, cat in ((t2_corner, t_i, t_j, cat_t2),
                                (reverse_context(t2_corner), t_j, t_i, cat_corner_s)):
        simples = torsion_simples(here)
        for p in cat:
            full_modules += equivalence.ideal_action_image(here.ideal, p).dim == p.dim
            if projective_by_simples(here, p, simples):
                image = context_module.eta_map(c, p).inner.as_left_module()
                full_images += equivalence.ideal_action_image(there.ideal, image).dim == image.dim
    calls = []
    tensor = context_module.tensor_over

    def counted(*args):
        calls.append(args)
        return tensor(*args)

    monkeypatch.setattr(context_module, "tensor_over", counted)
    monkeypatch.setattr(equivalence, "tensor_over", counted, raising=False)
    report = verify_projective_equivalence(t2_corner, cat_t2, cat_corner_s)
    members = [v for v in report.verdicts if v.check.endswith("invertible on member")]
    assert members and full_images
    assert len(calls) == 2 * len(members) + full_modules + full_images


def _diagonal_corner(n, p, idem, max_dim):
    alg = upper_triangular_algebra(Field.gf(p), n)
    ctx = corner_context(alg, alg.basis_vector(idem))
    return ctx, build_catalog(ctx.R, max_dim), build_catalog(ctx.S, max_dim)


@pytest.mark.parametrize("n, p, idem, max_dim, note", [
    (2, 2, 2, 1, "1 of 3 qualify"),
    (3, 2, 5, 1, "1 of 4 qualify"),
    (3, 2, 5, 2, "1 of 12 qualify"),
    (3, 3, 5, 2, "1 of 12 qualify"),
], ids=["T2/GF(2) e22<=1", "T3/GF(2) e33<=1", "T3/GF(2) e33<=2", "T3/GF(3) e33<=2"])
def test_projective_class_holds_beyond_small_catalogs(n, p, idem, max_dim, note):
    # these catalogs miss the non-split extension that shows the simple top
    # of the corner's projective is not ideal-projective, so a
    # catalog-bounded oracle keeps it and the round trip fails; the Ext^1
    # criterion drops it
    report = verify_projective_equivalence(*_diagonal_corner(n, p, idem, max_dim))
    assert report.passed and report.flags == []
    assert report.verdicts[0].note == note


def test_s2_is_not_ideal_projective_over_t2(t2, t2_corner, s1, s2, p2, cat_corner_s):
    # P2 is the middle term of the non-split class of Ext^1(S2, S1), and I
    # kills S1, so id_S2 does not lift along P2 -> S2
    ext = extension_space(s1, s2)
    assert ext.dim == 1
    assert is_isomorphic(middle_term(s1, s2, ext.from_coords((GF2.one,))), p2).found
    report = verify_projective_equivalence(t2_corner, user_catalog(t2, [s2]), cat_corner_s)
    assert report.verdicts[0].note == "0 of 1 qualify"
    # the catalog-bounded reference needs P2 in the catalog to see it
    t_i, _ = context_theories(t2_corner)
    assert is_I_projective_oracle(t_i, s2, build_catalog(t2, 1))
    assert not is_I_projective_oracle(t_i, s2, build_catalog(t2, 2))


def test_projective_verifier_flags_nothing_on_a_gf5_corner():
    # the class test is one tensor product, so nothing samples although
    # 5**3 points of R are past DEFAULT_ENUM_BUDGET (81)
    report = verify_projective_equivalence(*_diagonal_corner(2, 5, 2, 2))
    assert report.passed and report.flags == []


@pytest.mark.parametrize("n", [2, 3], ids=["M2(Q)", "M3(Q)"])
def test_projective_verifier_flags_only_user_catalogs_over_q(n):
    # I = R at e11, and the class test is one tensor product, exact over
    # Q: only the user-supplied catalogs are flagged
    alg = full_matrix_algebra(Field.rationals(), n)
    ctx = corner_context(alg, alg.basis_vector(0))
    s = regular_module(ctx.S)
    report = verify_projective_equivalence(ctx, user_catalog(ctx.R, [regular_module(ctx.R)]),
                                           user_catalog(ctx.S, [s, direct_sum(s, s)]))
    assert report.passed
    assert report.flags == ["sampled catalog: user-supplied"]


@pytest.mark.parametrize("alg, idem, max_dim", [
    (upper_triangular_algebra(GF3, 2), 0, 3),
    (upper_triangular_algebra(GF3, 2), 2, 3),
    (full_matrix_algebra(GF2, 2), 0, 4),
    (upper_triangular_algebra(GF2, 3), 5, 3),
], ids=["T2/GF(3) e11", "T2/GF(3) e22", "M2/GF(2) e11", "T3/GF(2) e33"])
def test_projective_class_sizes_match_catalog_oracle(alg, idem, max_dim):
    # where the catalogs hold every middle term that matters, the Ext^1
    # criterion and the catalog-bounded oracle pick the same members
    ctx = corner_context(alg, alg.basis_vector(idem))
    cats = (build_catalog(ctx.R, max_dim), build_catalog(ctx.S, max_dim))
    report = verify_projective_equivalence(ctx, *cats)
    notes = [v.note for v in report.verdicts if v.check == "projective class size"]
    expected = []
    for tt, cat in zip(context_theories(ctx), cats):
        full = [x for x in cat if equivalence.ideal_action_image(tt.ideal, x).dim == x.dim]
        members = [x for x in full if is_I_projective_oracle(tt, x, cat)]
        expected.append(f"{len(members)} of {len(cat)} qualify")
    assert notes == expected


@pytest.mark.parametrize("n, ideals, raised, nonzero", [(3, 12, 6, 2), (4, 30, 20, 8)],
                         ids=["T3/GF(2)", "T4/GF(2)"])
def test_projective_class_matches_ext_against_torsion_simples(n, ideals, raised, nonzero):
    # the one tensor product Iinf (x) P = P against the Ext^1 route over a
    # walk of R/I, on every module to dim 3, under every two-sided ideal
    # generated by at most two basis vectors: `raised` of them have
    # exponent > 1, `nonzero` of those a nonzero Iinf
    alg = upper_triangular_algebra(GF2, n)
    cat = build_catalog(alg, 3)
    gens = itertools.chain.from_iterable(itertools.combinations(range(alg.dim), k) for k in (1, 2))
    theories = [TorsionTheory.from_ideal(alg, ideal) for ideal in dict.fromkeys(
        two_sided_ideal_closure(alg, [alg.basis_vector(g) for g in gen]) for gen in gens)]
    assert len(theories) == ideals
    assert sum(tt.exponent > 1 for tt in theories) == raised
    assert sum(tt.exponent > 1 and tt.stable_ideal.dim > 0 for tt in theories) == nonzero
    for tt in theories:
        simples = torsion_simples(tt)
        for p in cat:
            assert equivalence._in_projective_class(tt, p) == projective_by_simples(tt, p, simples)


def test_sampled_dedup_miss_marks_catalog_sampled(t2, monkeypatch):
    # a kept class behind a sampled miss is not proven new
    monkeypatch.setattr(equivalence, "is_isomorphic", lambda m, n: IsoResult(None, False))
    cat = build_catalog(t2, 2)
    assert not cat.exhaustive
    assert cat.provenance == "sampled(iso dedup seed=0)"
    cat = build_catalog(t2, 2, budget=3, allow_sampling=True, seed=5)
    assert cat.provenance == "sampled(seed=5; iso dedup seed=0)"
    report = equivalence.Report("catalog")
    report.flag_sampled_catalogs(cat)
    assert report.sampled


def test_catalog_budget_bounds_the_walk_of_r():
    from moritakit.modules import BudgetExceeded

    # the budget bounds p**dim R, 5**3 here, and each Ext space, not R^2
    t2 = upper_triangular_algebra(Field.gf(5), 2)
    cat = build_catalog(t2, 2)
    assert len(cat) == 7 and cat.provenance == "exhaustive-up-to-dim(2)"
    with pytest.raises(BudgetExceeded):
        build_catalog(t2, 2, budget=124)


def test_catalog_budget_bounds_each_ext_space():
    from moritakit.modules import BudgetExceeded

    # over k[x,y,z]/(x,y,z)^2, Ext^1(S + S, S) has dim 6: 2**6 classes
    a = _radical_square_zero(GF2, 3)
    with pytest.raises(BudgetExceeded):
        build_catalog(a, 3, budget=32)
    assert build_catalog(a, 3, budget=32, allow_sampling=True).provenance == "sampled(seed=0)"
    cat = build_catalog(a, 3, budget=64)
    assert len(cat) == 32 and cat.provenance == "exhaustive-up-to-dim(3)"


def _unimodular(n: int, seed: int) -> list:
    """P = L U for unit-triangular L, U with entries in {-1, 0, 1}: an
    integer matrix of determinant 1, so invertible over every GF(p)."""
    rng = random.Random(seed)
    low = [[1 if i == j else rng.randint(-1, 1) * (i > j) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else rng.randint(-1, 1) * (i < j) for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("algebra, max_dim", [
    pytest.param(upper_triangular_algebra(GF2, 2), 4, id="T2-GF2-4"),
    pytest.param(upper_triangular_algebra(GF3, 2), 3, id="T2-GF3-3"),
    pytest.param(full_matrix_algebra(GF2, 2), 4, id="M2-GF2-4"),
])
@pytest.mark.parametrize("basis_seed", [None, 1, 2], ids=["standard", "rebased1", "rebased2"])
def test_catalog_matches_unfiltered_bruteforce(algebra, max_dim, basis_seed):
    # the invariant buckets skip only searches whose outcome is known, so
    # the representatives, their order and the provenance are those of
    # searching every candidate against every class
    if basis_seed is not None:
        algebra = _rebased(algebra, _unimodular(algebra.dim, basis_seed))
    cat = build_catalog(algebra, max_dim)
    modules, provenance = brute_catalog(algebra, max_dim)
    assert cat.modules == modules
    assert cat.provenance == provenance == f"exhaustive-up-to-dim({max_dim})"


def _radical_square_zero(f: Field, n: int) -> Algebra:
    """k[x_1, ..., x_n]/(x_1, ..., x_n)^2 on the basis (1, x_1, ..., x_n)."""
    d = n + 1
    e = [tuple(f.one if k == i else f.zero for k in range(d)) for i in range(d)]
    zero = (f.zero,) * d
    mul = [[e[j] if i == 0 else e[i] if j == 0 else zero for j in range(d)] for i in range(d)]
    return Algebra(f, d, mul, e[0])


def _partition_counts(part_dims, max_dim: int) -> list:
    """Coefficients of x^0..x^max_dim in prod 1/(1 - x^d) over part_dims:
    the number of multisets of parts with each total dimension."""
    counts = [1] + [0] * max_dim
    for d in part_dims:
        for n in range(d, max_dim + 1):
            counts[n] += counts[n - d]
    return counts


def _interval_dims(n: int) -> list:
    """Dimensions of the indecomposables of T_n over a field: the intervals
    [i, j] of the linear quiver with n vertices."""
    return [j - i + 1 for i in range(n) for j in range(i, n)]


@pytest.mark.parametrize("algebra, max_dim, part_dims, classes", [
    pytest.param(upper_triangular_algebra(GF2, 2), 6, _interval_dims(2), 50, id="T2-GF2-6"),
    pytest.param(upper_triangular_algebra(GF3, 2), 5, _interval_dims(2), 34, id="T2-GF3-5"),
    pytest.param(upper_triangular_algebra(GF2, 3), 5, _interval_dims(3), 120, id="T3-GF2-5"),
    pytest.param(_radical_square_zero(GF2, 1), 6, [1, 2], 16, id="GF2[x]/x^2-6"),
])
def test_catalog_counts_match_the_krull_schmidt_closed_form(algebra, max_dim, part_dims, classes):
    # algebras of finite type: every module is a unique sum of the listed
    # indecomposables (Krull-Schmidt), so the classes of each dimension are
    # counted by the coefficients of prod 1/(1 - x^d), far beyond the reach
    # of the action-tuple oracle
    cat = build_catalog(algebra, max_dim)
    assert cat.exhaustive, cat.provenance
    per_dim = [0] * (max_dim + 1)
    for m in cat:
        per_dim[m.dim] += 1
    assert per_dim == _partition_counts(part_dims, max_dim)
    assert len(cat) == classes


@pytest.mark.parametrize("algebra, max_dim", [
    pytest.param(_radical_square_zero(GF2, 1), 4, id="GF2[x]/x^2-4"),
    pytest.param(_radical_square_zero(GF2, 2), 3, id="GF2[x,y]/(x,y)^2-3"),
])
@pytest.mark.parametrize("basis_seed", [None, 3], ids=["standard", "rebased3"])
def test_catalog_matches_bruteforce_beyond_bricks(algebra, max_dim, basis_seed):
    # the regular module of a local algebra has dim End > 1, and over it
    # the non-split extensions by the one simple make most of the catalog:
    # the buckets must skip only known answers there too
    if basis_seed is not None:
        algebra = _rebased(algebra, _unimodular(algebra.dim, basis_seed))
    cat = build_catalog(algebra, max_dim)
    modules, provenance = brute_catalog(algebra, max_dim)
    assert cat.modules == modules
    assert cat.provenance == provenance == f"exhaustive-up-to-dim({max_dim})"
    reg = regular_module(algebra)  # indecomposable (R is local), End = R^op
    assert iso_invariant(reg)[-1] > 1
    assert any(is_isomorphic(m, reg).found for m in cat if m.dim == reg.dim)


@pytest.mark.parametrize("algebra, max_dim", [
    pytest.param(_radical_square_zero(GF2, 1), 3, id="GF2[x]/x^2-3"),
    pytest.param(_radical_square_zero(GF2, 2), 3, id="GF2[x,y]/(x,y)^2-3"),
    pytest.param(upper_triangular_algebra(GF2, 2), 2, id="T2-GF2-2"),
])
def test_catalog_counts_match_the_action_tuple_oracle(algebra, max_dim):
    # an independent oracle: every tuple of action matrices that satisfies
    # the module laws, counted up to simultaneous conjugacy
    cat = build_catalog(algebra, max_dim)
    assert cat.provenance == f"exhaustive-up-to-dim({max_dim})"
    assert [sum(1 for m in cat if m.dim == d) for d in range(max_dim + 1)] == [
        count_module_classes(algebra, d) for d in range(max_dim + 1)]


def test_catalog_holds_the_dual_of_the_regular_module():
    # D(A) = Hom_k(A_A, k), with (a.f)(x) = f(xa): its action matrices are the
    # transposes of right multiplication.  Over k[x,y,z]/(x,y,z)^2 it has a
    # 3-dim top, so it is no quotient of R or R^2, and it is indecomposable.
    a = _radical_square_zero(GF2, 3)
    dual = LeftModule(a, a.dim, [a.right_mult_matrix(a.basis_vector(i)).transpose()
                                 for i in range(a.dim)])
    assert validate_module(dual) == []
    cat = build_catalog(a, 4)
    assert cat.provenance == "exhaustive-up-to-dim(4)"
    assert any(is_isomorphic(m, dual).found for m in cat)


def test_catalog_never_searches_between_sums_of_bricks(monkeypatch):
    # each split sum is offered once, for one (class, simple) pair in
    # catalog order; on T2/GF(2) <= 4 a sum of bricks that repeats a kept
    # class meets a representative that is no sum of bricks, never another
    # sum of bricks, and the searches stay few
    t2 = upper_triangular_algebra(GF2, 2)
    sums = {}
    real_sum = equivalence.direct_sum

    def recording_sum(a, b):
        total = real_sum(a, b)
        sums[id(total)] = (total, a, b)
        return total

    def of_bricks(m) -> bool:
        if id(m) in sums:
            return all(of_bricks(x) for x in sums[id(m)][1:])
        return iso_invariant(m)[-1] == 1

    searches = []
    real_iso = equivalence.is_isomorphic

    def recording_iso(m, n):
        searches.append((m, n))
        return real_iso(m, n)

    monkeypatch.setattr(equivalence, "direct_sum", recording_sum)
    monkeypatch.setattr(equivalence, "is_isomorphic", recording_iso)
    cat = build_catalog(t2, 4)
    assert len(cat) == 22
    assert 0 < len(searches) <= 45
    for m, n in searches:
        if id(m) in sums or id(n) in sums:
            assert not (of_bricks(m) and of_bricks(n))


_SEARCH_BUILDS = [
    pytest.param(lambda: build_catalog(upper_triangular_algebra(GF2, 2), 4), False, id="T2-GF2-4"),
    pytest.param(lambda: build_catalog(_rebased(upper_triangular_algebra(GF2, 2), _unimodular(3, 7)), 4),
                 False, id="T2-GF2-4-rebased7"),
    pytest.param(lambda: build_catalog(_radical_square_zero(GF2, 2), 4), True, id="GF2[x,y]/(x,y)^2-4"),
    pytest.param(lambda: build_graded_catalog(
        GradedAlgebra(upper_triangular_algebra(GF2, 2), FiniteGroup.cyclic(2), (0, 1, 0)), 3),
                 True, id="C2-graded-T2-3"),
]


def _record_searches(monkeypatch):
    """Record every plain and graded _search_invertible call as (hom,
    endomorphisms, result); every proof that a deferred result runs as
    (hom, endomorphisms, verdict, draws made during it); and every draw."""
    searches, proofs, draws = [], [], []
    real, real_draws = modules._search_invertible, exactlin._invertible_draws

    def counting(*args):
        draws.append(args)
        return real_draws(*args)

    def recording(hom, endomorphisms):
        res = real(hom, endomorphisms)
        searches.append((hom, endomorphisms, res))
        prove = res._prove
        if prove is not None:
            def proof():
                before = len(draws)
                proofs.append((hom, endomorphisms, prove(), len(draws) - before))
                return proofs[-1][2]
            res._prove = proof
        return res

    monkeypatch.setattr(exactlin, "_invertible_draws", counting)
    monkeypatch.setattr(modules, "_search_invertible", recording)
    monkeypatch.setattr(graded, "_search_invertible", recording)
    return searches, proofs, draws


@pytest.mark.parametrize("build, has_misses", _SEARCH_BUILDS)
def test_iso_search_matches_the_plain_lex_sweep(monkeypatch, build, has_misses):
    # the pruned sweep returns the plain sweep's first invertible map and
    # flag on every search of a build, hits and proofs of none alike
    searches, _, _ = _record_searches(monkeypatch)
    build()
    assert searches
    for hom, _, res in searches:
        assert (res.map_, res.exhaustive) == first_invertible_lex(hom)
    if has_misses:
        assert any(res.proven_none for _, _, res in searches)


def test_catalog_iso_sweep_tests_few_maps(monkeypatch):
    # at a leaf of the walk the common kernel is the whole space, and the
    # injectivity test there is the invertibility test of one map; the plain
    # sweep of T2/GF(2) <= 4 tests 1,941 maps
    tested = []
    real = exactlin._injective_on

    def counting(field, rows, basis):
        if len(basis) == len(rows):
            tested.append(rows)
        return real(field, rows, basis)

    monkeypatch.setattr(exactlin, "_injective_on", counting)
    cat = build_catalog(upper_triangular_algebra(GF2, 2), 4)
    assert len(cat) == 22
    assert 0 < len(tested) <= 194


def test_catalog_iso_sweep_builds_one_kernel_chain_per_search(monkeypatch):
    # the walk prunes on the common kernels of the maps only
    walks, chains = [], []
    real_walk, real_kernels = exactlin._invertible_walk, exactlin._common_kernels

    def walk(*args):
        walks.append(args)
        return real_walk(*args)

    def kernels(*args):
        chains.append(args)
        return real_kernels(*args)

    monkeypatch.setattr(exactlin, "_invertible_walk", walk)
    monkeypatch.setattr(exactlin, "_common_kernels", kernels)
    build_catalog(_radical_square_zero(GF2, 2), 4)
    assert walks and len(chains) == len(walks)


@pytest.mark.parametrize("build, has_misses", _SEARCH_BUILDS + [
    pytest.param(lambda: build_catalog(_radical_square_zero(GF2, 3), 3), True, id="GF2[x,y,z]/(x,y,z)^2-3"),
])
def test_cheap_iso_decision_matches_the_plain_lex_sweep(monkeypatch, build, has_misses):
    # found and exhaustive, read before the witness as dedup reads them, are
    # decided by a Hom dimension or a draw where one applies; they and the
    # witness read after them are the plain sweep's
    searches, proofs, _ = _record_searches(monkeypatch)
    build()
    verdicts = [verdict for _, _, verdict, _ in proofs]
    assert searches and True in verdicts
    if has_misses:
        assert False in verdicts
    for hom, _, res in searches:
        found, exhaustive = res.found, res.exhaustive
        witness, plain_exhaustive = first_invertible_lex(hom)
        assert (found, exhaustive) == (witness is not None, plain_exhaustive)
        assert res.map_ == witness


def test_round_trip_reports_run_no_draws(monkeypatch, t2, t2_corner, cat_t2, cat_corner_s):
    # a round trip reads its witness first, so it pays the walk and no draws
    gctx = graded_corner_context(GradedAlgebra(t2, FiniteGroup.cyclic(2), (0, 1, 0)), E22)
    gcat_r, gcat_s = build_graded_catalog(gctx.graded_r, 3), build_graded_catalog(gctx.graded_s, 3)
    searches, _, draws = _record_searches(monkeypatch)
    reports = [verify_kato_muller(t2_corner, cat_t2, cat_corner_s),
               verify_graded_kato_muller(gctx, gcat_r, gcat_s)]
    assert draws == []
    assert all(r.passed for r in reports) and searches
    witnesses = [v.witness for r in reports for v in r.verdicts if "round trip" in v.check]
    for hom, _, res in searches:
        assert any(w is res.map_ for w in witnesses)
        assert (res.map_, res.exhaustive) == first_invertible_lex(hom)


def test_strict_verifier_names_the_s_side(t2_corner, cat_t2, cat_corner_s):
    # reversed, the corner's proper trace ideal lies in S; a zero pairing
    # fails both sides, and each is recorded
    report = verify_strict_equivalence(reverse_context(t2_corner), cat_corner_s, cat_t2)
    assert [tuple(v) for v in report.verdicts] == [
        ("context", "pairing into S surjective", False, None, "trace ideal has dim 2 < 3")]
    zero = MoritaContext(t2_corner.R, t2_corner.S, t2_corner.M, t2_corner.N,
                         Matrix.zeros(GF2, 3, t2_corner.M.dim * t2_corner.N.dim),
                         Matrix.zeros(GF2, 1, t2_corner.N.dim * t2_corner.M.dim))
    report = verify_strict_equivalence(zero, cat_t2, cat_corner_s)
    assert [(v.check, v.note) for v in report.verdicts] == [
        ("pairing into R surjective", "trace ideal has dim 0 < 3"),
        ("pairing into S surjective", "trace ideal has dim 0 < 1")]
    assert not report.passed
    one_epi = verify_one_epi(zero, cat_t2, cat_corner_s)
    assert one_epi.verdicts == report.verdicts[:1]


_REUSE_BUILDS = [
    pytest.param(upper_triangular_algebra(GF2, 2), 4, id="T2-GF2-4"),
    pytest.param(upper_triangular_algebra(GF3, 2), 3, id="T2-GF3-3"),
    pytest.param(full_matrix_algebra(GF2, 2), 4, id="M2-GF2-4"),
    pytest.param(upper_triangular_algebra(GF2, 3), 3, id="T3-GF2-3"),
]


@pytest.mark.parametrize("algebra, max_dim", _REUSE_BUILDS)
@pytest.mark.parametrize("basis_seed", [None, 3], ids=["standard", "rebased3"])
def test_split_sum_key_is_the_invariant_of_the_sum(monkeypatch, algebra, max_dim, basis_seed):
    # every split sum the build offers, keyed from its summands' keys, has
    # the key iso_invariant gives the built sum, in either summand order
    if basis_seed is not None:
        algebra = _rebased(algebra, _unimodular(algebra.dim, basis_seed))
    sums, keyed = [], []
    real_sum, real_key = equivalence.direct_sum, equivalence.sum_invariant

    def recording_sum(a, b):
        sums.append((a, b, real_sum(a, b)))
        return sums[-1][2]

    def recording_key(s, t, key_s, key_t):
        keyed.append((s, t, key_s, key_t, real_key(s, t, key_s, key_t)))
        return keyed[-1][-1]

    monkeypatch.setattr(equivalence, "direct_sum", recording_sum)
    monkeypatch.setattr(equivalence, "sum_invariant", recording_key)
    build_catalog(algebra, max_dim)
    assert sums and keyed
    for a, b, m in sums:
        assert sum_invariant(a, b, iso_invariant(a), iso_invariant(b)) == iso_invariant(m)
    for s, t, key_s, key_t, key in keyed:
        assert (key_s, key_t) == (iso_invariant(s), iso_invariant(t))
        assert key == iso_invariant(direct_sum(s, t)) == iso_invariant(direct_sum(t, s))


@pytest.mark.parametrize("algebra, max_dim", _REUSE_BUILDS + [
    pytest.param(_radical_square_zero(GF2, 2), 3, id="GF2[x,y]/(x,y)^2-3"),
])
def test_early_exit_simplicity_matches_the_lattice(algebra, max_dim):
    cat = build_catalog(algebra, max_dim)
    assert any(is_simple(m) for m in cat)
    for m in cat:
        assert is_simple(m) == (len(submodule_lattice(m)) == 2)


@pytest.mark.parametrize("algebra, max_dim", [
    pytest.param(_rebased(upper_triangular_algebra(GF3, 2), _unimodular(3, 3)), 2, id="T2-GF3-rebased3"),
    pytest.param(_rebased(upper_triangular_algebra(GF2, 3), _unimodular(6, 3)), 2, id="T3-GF2-rebased3"),
    pytest.param(_rebased(full_matrix_algebra(GF2, 2), _unimodular(4, 3)), 4, id="M2-GF2-rebased3"),
    pytest.param(_rebased(_radical_square_zero(GF2, 2), _unimodular(3, 3)), 2, id="GF2[x,y]/(x,y)^2-rebased3"),
])
def test_generator_row_extension_space_matches_all_pairs_rows(algebra, max_dim):
    # the (generator, basis) rows and f(1) = 0 cut out the same Z^1, with
    # the same canonical basis, as the rows of every basis pair
    assert len(algebra.generator_indices()) < algebra.dim
    cat = build_catalog(algebra, max_dim).modules
    for s, t in itertools.product(cat, repeat=2):
        assert extension_space(s, t) == extension_space_dense(s, t)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: build_catalog(_radical_square_zero(GF2, 2), 4), id="GF2[x,y]/(x,y)^2-4"),
    pytest.param(lambda: build_graded_catalog(
        GradedAlgebra(upper_triangular_algebra(GF2, 2), FiniteGroup.cyclic(2), (0, 1, 0)), 3),
                 id="C2-graded-T2-3"),
])
def test_hom_dimension_disproves_before_any_draw(monkeypatch, build):
    # a dedup search whose Hom dimension differs from that of its source's
    # endomorphisms is a proven miss, decided before any draw
    _, proofs, _ = _record_searches(monkeypatch)
    build()
    disproved = [(res, drawn) for hom, endo, res, drawn in proofs if endo().dim != hom.dim]
    assert disproved and all(res is False and drawn == 0 for res, drawn in disproved)
    assert any(res is True for _, _, res, _ in proofs)


@pytest.mark.parametrize("build, kernel_misses", [
    pytest.param(lambda: build_catalog(_radical_square_zero(GF2, 3), 3), False, id="GF2[x,y,z]/(x,y,z)^2-3"),
    pytest.param(lambda: build_graded_catalog(
        GradedAlgebra(upper_triangular_algebra(GF2, 2), FiniteGroup.cyclic(2), (0, 1, 0)), 3),
                 True, id="C2-graded-T2-3"),
])
def test_found_and_witness_agree_in_either_reading_order(monkeypatch, build, kernel_misses):
    # found then map_, and map_ then found, on fresh results of every search
    # of a build are the plain sweep's, and the map_-first order draws
    # nothing.  Among them are misses with equal Hom and End dimensions,
    # which only the walk decides; in the graded build one has maps with a
    # common nonzero kernel, a miss that the walk's root test decides
    real = modules._search_invertible
    searches, _, draws = _record_searches(monkeypatch)
    build()
    walked, kernel = 0, 0
    for hom, endo, _ in searches:
        witness, exhaustive = first_invertible_lex(hom)
        first = real(hom, endo)
        assert (first.found, first.map_, first.exhaustive) == (witness is not None, witness, exhaustive)
        before = len(draws)
        second = real(hom, endo)
        assert (second.map_, second.found, second.exhaustive) == (witness, witness is not None, exhaustive)
        assert len(draws) == before
        if witness is None and endo().dim == hom.dim:
            walked += 1
            stacked = Matrix(hom.basis.field, [r for m in hom.matrices for r in m.entries], cols=hom.source.dim)
            kernel += exactlin.rank(stacked) < hom.source.dim
    assert walked and (kernel > 0) == kernel_misses


def test_catalog_keys_no_known_repeat_twice(monkeypatch):
    # a candidate equal to one already found isomorphic to a kept class is
    # dropped before keying; only kept classes are keyed again
    keyed = []
    real = equivalence.iso_invariant

    def recording(m):
        keyed.append(m)
        return real(m)

    monkeypatch.setattr(equivalence, "iso_invariant", recording)
    cat = build_catalog(upper_triangular_algebra(GF2, 2), 4)
    repeats = {m for m in keyed if keyed.count(m) > 1}
    assert repeats and repeats <= set(cat.modules)
