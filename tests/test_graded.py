import pytest

import moritakit.graded as graded
import moritakit.torsion as torsion
from moritakit.algebra import Algebra, Ideal, full_matrix_algebra, upper_triangular_algebra, validate_algebra
from moritakit.context import corner_context, trace_ideals
from moritakit.equivalence import build_catalog, verify_kato_muller
from moritakit.exactlin import Basis, Field, Matrix
from moritakit.graded import (
    FiniteGroup,
    GradedAlgebra,
    GradedContext,
    GradedModule,
    build_graded_catalog,
    degrees_for_hom_basis,
    graded_closed_test,
    graded_corner_context,
    graded_hom,
    graded_localize,
    ideal_degrees,
    is_graded_isomorphic,
    reverse_graded_context,
    suspension,
    verify_graded_kato_muller,
)
from moritakit.modules import IsoResult, LeftModule, hom_space, regular_module
from moritakit.torsion import TorsionTheory, is_closed, torsion_submodule

from bruteforce import graded_closed_by_degrees, hom_component_by_kernel, localize_via_hom_module, smash_algebra

GF2 = Field.gf(2)
E22 = (0, 0, 1)


@pytest.fixture(scope="module")
def c2():
    return FiniteGroup.cyclic(2)


@pytest.fixture(scope="module")
def gt2(t2, c2):
    # e11 and e22 sit in the identity degree, e12 in the other one
    return GradedAlgebra(t2, c2, (0, 1, 0))


@pytest.fixture(scope="module")
def greg(gt2):
    return GradedModule(gt2, regular_module(gt2.base), gt2.degrees)


def scalar_graded(gt2, weights, degree):
    f = gt2.base.field
    mats = [Matrix(f, [[f.of_int(w)]]) for w in weights]
    return GradedModule(gt2, LeftModule(gt2.base, 1, mats), (degree,))


# ---------------------------------------------------------------- groups


def test_cyclic_group_structure():
    g = FiniteGroup.cyclic(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.mul(3, 2) == 1
    assert g.inv(3) == 1
    assert g.inv(0) == 0


def test_trivial_group():
    g = FiniteGroup.trivial()
    assert g.order == 1 and g.identity == 0


def test_group_rejects_nonassociative_table():
    # a latin square that is not a group table
    bad = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    with pytest.raises(ValueError, match="associative|inverse|identity"):
        FiniteGroup(bad)


def test_group_rejects_missing_identity():
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup(((0, 0), (0, 0)))


def test_group_accepts_relabeled_z2():
    g = FiniteGroup(((1, 0), (0, 1)))
    assert g.identity == 1 and g.inv(0) == 0


# ------------------------------------------------- graded algebras/modules


def test_graded_t2_accepts_standard_grading(gt2):
    assert gt2.degrees == (0, 1, 0)


def test_grading_with_unit_outside_identity_degree_rejected(t2, c2):
    with pytest.raises(ValueError, match="identity degree"):
        GradedAlgebra(t2, c2, (1, 0, 0))


def test_grading_breaking_products_rejected(c2):
    m2 = full_matrix_algebra(GF2, 2)
    # e12 * e21 = e11 would need degree 1 * 0 = 1, but e11 has degree 0
    with pytest.raises(ValueError, match="wrong degree"):
        GradedAlgebra(m2, c2, (0, 1, 0, 0))


def test_m2_checkerboard_grading_valid(c2):
    m2 = full_matrix_algebra(GF2, 2)
    g = GradedAlgebra(m2, c2, (0, 1, 1, 0))
    assert g.group.order == 2


def test_graded_module_accepts_compatible_degrees(greg):
    assert greg.degrees == (0, 1, 0)
    assert greg.component_dims() == (2, 1)


def test_graded_module_rejects_flat_degrees_on_regular(gt2):
    # e12 moves the e22 coordinate into the e12 coordinate, so those two
    # coordinates cannot share a degree
    with pytest.raises(ValueError, match="leaves its degree"):
        GradedModule(gt2, regular_module(gt2.base), (0, 0, 0))


def test_simple_modules_admit_both_degrees(gt2):
    for d in (0, 1):
        gm = scalar_graded(gt2, [0, 0, 1], d)
        assert gm.component_dims()[d] == 1


# ------------------------------------------------------------- suspension


def test_suspension_shifts_degrees(greg):
    shifted = suspension(greg, 1)
    assert shifted.degrees == (1, 0, 1)
    assert shifted.base is greg.base


def test_suspension_by_identity_is_trivial(greg):
    assert suspension(greg, 0).degrees == greg.degrees


def test_suspension_composes(greg):
    once = suspension(greg, 1)
    assert suspension(once, 1).degrees == greg.degrees


def test_suspension_preserves_torsion_and_image_dims(gt2, greg):
    i, _ = trace_ideals(corner_context(gt2.base, E22))
    tt = TorsionTheory.from_ideal(gt2.base, i)
    shifted = suspension(greg, 1)
    assert torsion_submodule(tt, greg.base).dim == torsion_submodule(tt, shifted.base).dim


# ------------------------------------------------------------ graded homs


def test_hom_from_projective_concentrated_in_one_degree(gt2, p2):
    gp = GradedModule(gt2, p2, (1, 0))
    gs = scalar_graded(gt2, [0, 0, 1], 0)
    h = graded_hom(gp, gs)
    assert [h.component(s).dim for s in (0, 1)] == [1, 0]
    # regrading the target moves the hom to the other degree
    gs1 = scalar_graded(gt2, [0, 0, 1], 1)
    h1 = graded_hom(gp, gs1)
    assert [h1.component(s).dim for s in (0, 1)] == [0, 1]


def test_hom_from_regular_recovers_components(gt2, greg, p2):
    for target in (greg, GradedModule(gt2, p2, (1, 0)), scalar_graded(gt2, [1, 0, 0], 1)):
        h = graded_hom(greg, target)
        for sigma in (0, 1):
            assert h.component(sigma).dim == target.component_dims()[sigma]


def test_graded_hom_components_sum_to_ungraded_dim(gt2, greg, p2):
    mods = [greg, GradedModule(gt2, p2, (1, 0)), scalar_graded(gt2, [0, 0, 1], 0),
            scalar_graded(gt2, [1, 0, 0], 1)]
    for a in mods:
        for b in mods:
            h = graded_hom(a, b)
            assert h.total_dim == hom_space(a.base, b.base).dim


def test_hom_basis_degrees_are_well_defined(gt2, greg, p2):
    gp = GradedModule(gt2, p2, (1, 0))
    full = hom_space(gp.base, greg.base)
    degs = degrees_for_hom_basis(full, gt2.group, gp.degrees, greg.degrees)
    assert len(degs) == full.dim


# ------------------------------------------------------------- graded iso


def test_graded_iso_same_grading(gt2):
    a = scalar_graded(gt2, [0, 0, 1], 0)
    b = scalar_graded(gt2, [0, 0, 1], 0)
    res = is_graded_isomorphic(a, b)
    assert res.found and res.exhaustive


def test_graded_iso_distinguishes_degrees(gt2):
    a = scalar_graded(gt2, [0, 0, 1], 0)
    b = scalar_graded(gt2, [0, 0, 1], 1)
    assert is_graded_isomorphic(a, b).proven_none


def test_suspension_of_regular_not_graded_isomorphic(gt2, greg):
    assert is_graded_isomorphic(greg, suspension(greg, 1)).proven_none


# ------------------------------------------------------- graded closedness


@pytest.fixture(scope="module")
def corner_theory(gt2):
    i, _ = trace_ideals(corner_context(gt2.base, E22))
    return TorsionTheory.from_ideal(gt2.base, i)


def test_graded_closed_on_socle_simple(gt2, corner_theory):
    for d in (0, 1):
        assert graded_closed_test(corner_theory, scalar_graded(gt2, [0, 0, 1], d))


def test_graded_closed_fails_for_top_simple_and_regular(gt2, greg, corner_theory):
    assert not graded_closed_test(corner_theory, scalar_graded(gt2, [1, 0, 0], 0))
    assert not graded_closed_test(corner_theory, greg)


def test_graded_closed_implies_ungraded_closed(corner_theory):
    cat = build_graded_catalog(corner_theory_algebra(corner_theory), 2)
    for gm in cat:
        if graded_closed_test(corner_theory, gm):
            assert is_closed(corner_theory, gm.base)


def corner_theory_algebra(tt):
    c2 = FiniteGroup.cyclic(2)
    return GradedAlgebra(tt.algebra, c2, (0, 1, 0))


def test_graded_closed_rejects_foreign_algebra(gt2, corner_theory):
    other = full_matrix_algebra(GF2, 2)
    gother = GradedAlgebra(other, gt2.group, (0, 1, 1, 0))
    gm = GradedModule(gother, regular_module(other), gother.degrees)
    with pytest.raises(ValueError, match="different algebras"):
        graded_closed_test(corner_theory, gm)


def test_graded_closed_errors_on_nongraded_ideal():
    # group algebra of C2 over GF(3): the ideal spanned by 1 + g is
    # idempotent but mixes the two degrees
    gf3 = Field.gf(3)
    kc2 = Algebra(gf3, 2, (((1, 0), (0, 1)), ((0, 1), (1, 0))), (1, 0))
    galg = GradedAlgebra(kc2, FiniteGroup.cyclic(2), (0, 1))
    tt = TorsionTheory.from_ideal(kc2, Ideal(kc2, Basis.span(gf3, 2, [(1, 1)])))
    gm = GradedModule(galg, regular_module(kc2), (0, 1))
    with pytest.raises(ValueError, match="not graded"):
        graded_closed_test(tt, gm)


CLOSEDNESS_CORNERS = [
    pytest.param(Field.gf(2), 2, (0, 1, 0), E22, 3, {False, True}, id="T2-GF2-e22"),
    pytest.param(Field.gf(2), 2, (0, 1, 0), (1, 0, 0), 3, {False, True}, id="T2-GF2-e11"),
    pytest.param(Field.gf(3), 2, (0, 1, 0), E22, 3, {False, True}, id="T2-GF3-e22"),
    pytest.param(Field.gf(3), 2, (0, 1, 0), (1, 0, 0), 3, {False, True}, id="T2-GF3-e11"),
    # strict: both trace ideals are whole algebras, so every module is closed
    pytest.param(Field.gf(2), None, (0, 1, 1, 0), (1, 0, 0, 0), 3, {True}, id="M2-GF2-checkerboard-e11"),
    pytest.param(Field.gf(2), 3, (0, 1, 2, 0, 1, 0), (1, 0, 0, 0, 0, 0), 2, {False, True},
                 id="T3-GF2-C3-e11"),
]


@pytest.mark.parametrize("field, n, degrees, e, max_dim, seen", CLOSEDNESS_CORNERS)
def test_graded_closedness_needs_no_degree_reading(field, n, degrees, e, max_dim, seen):
    # alpha(x): a |-> a.x has the degree of x, so on graded inputs the plain
    # closedness test agrees with reading alpha's columns against the
    # degrees of Hom_R(Iinf, X), on both sides of the corner and under
    # every suspension (T2 and T3 graded by path length, M2 checkerboard)
    base = upper_triangular_algebra(field, n) if n else full_matrix_algebra(field, 2)
    group = FiniteGroup.cyclic(len(set(degrees)))
    gctx = graded_corner_context(GradedAlgebra(base, group, degrees), e)
    verdicts = set()
    for galg, ideal in zip((gctx.graded_r, gctx.graded_s), trace_ideals(gctx.context)):
        tt = TorsionTheory.from_ideal(galg.base, ideal)
        for gm in build_graded_catalog(galg, max_dim):
            for sigma in range(group.order):
                shifted = suspension(gm, sigma)
                verdict = graded_closed_test(tt, shifted)
                assert verdict == graded_closed_by_degrees(tt, shifted)
                verdicts.add(verdict)
    assert verdicts == seen


def test_graded_localize_regular(gt2, greg, corner_theory):
    loc = graded_localize(corner_theory, greg)
    assert loc.dim == 1
    assert loc.degrees == (0,)
    assert graded_closed_test(corner_theory, loc)


def test_graded_localize_commutes_with_suspension_on_dims(gt2, greg, corner_theory):
    a = graded_localize(corner_theory, suspension(greg, 1))
    b = suspension(graded_localize(corner_theory, greg), 1)
    assert a.component_dims() == b.component_dims()


def test_graded_localize_matches_the_hom_module_construction(gt2, corner_theory):
    src_degs = ideal_degrees(corner_theory, gt2)
    for gm in build_graded_catalog(gt2, 3):
        loc = graded_localize(corner_theory, gm)
        module, _, hom, kept = localize_via_hom_module(corner_theory, gm.base)
        assert loc.base == module
        assert loc.degrees == degrees_for_hom_basis(hom, gt2.group, src_degs,
                                                    tuple(gm.degrees[i] for i in kept))


def test_graded_localize_asserts_the_localization_contract(greg, corner_theory, monkeypatch):
    # graded_localize is localize plus degrees, so it inherits localize's checks
    monkeypatch.setattr(torsion, "is_closed", lambda tt, x: False)
    with pytest.raises(AssertionError, match="^localization produced a non-closed module$"):
        graded_localize(corner_theory, greg)


# -------------------------------------------------------- graded catalogs


def test_graded_catalog_count_frozen(gt2):
    cat = build_graded_catalog(gt2, 3)
    assert len(cat) == 45
    assert cat.provenance == "exhaustive-up-to-dim(3)"
    assert cat.exhaustive


def test_graded_catalog_trivial_group_matches_ungraded(t2):
    triv = GradedAlgebra.trivially_graded(t2)
    cat = build_graded_catalog(triv, 3)
    assert len(cat) == len(build_catalog(t2, 3))


def test_graded_catalog_members_pairwise_distinct(gt2):
    cat = build_graded_catalog(gt2, 2)
    mods = list(cat)
    for i, a in enumerate(mods):
        for b in mods[i + 1:]:
            assert not is_graded_isomorphic(a, b).found


def test_graded_catalog_inherits_sampled_provenance(gt2):
    from moritakit.modules import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        build_graded_catalog(gt2, 2, budget=3)
    cat = build_graded_catalog(gt2, 2, budget=3, allow_sampling=True, seed=5)
    assert cat.provenance == "sampled(seed=5)"
    assert not cat.exhaustive


# --------------------------------------------------------- graded context


def test_graded_corner_context_degrees(gt2):
    gctx = graded_corner_context(gt2, E22)
    assert gctx.m_degrees == (1, 0)
    assert gctx.n_degrees == (0,)
    assert gctx.graded_s.degrees == (0,)


def test_graded_corner_rejects_mixed_degree_idempotent(gt2):
    # e11 + e12 is idempotent over GF(2) but not homogeneous
    with pytest.raises(ValueError, match="homogeneous"):
        graded_corner_context(gt2, (1, 1, 0))


def test_graded_context_rejects_wrong_pairing_degrees(gt2):
    ctx = corner_context(gt2.base, E22)
    gs = GradedAlgebra(ctx.S, gt2.group, (0,))
    with pytest.raises(ValueError, match="grading"):
        GradedContext(ctx, gt2, gs, (0, 0), (0,))


def test_graded_context_rejects_out_of_range_degrees(gt2):
    ctx = corner_context(gt2.base, E22)
    gs = GradedAlgebra(ctx.S, gt2.group, (0,))
    with pytest.raises(ValueError, match="M: degree index out of range"):
        GradedContext(ctx, gt2, gs, (1, 5), (0,))


def test_graded_context_rejects_wrong_n_degrees(c2):
    # checkerboard M2 at e11: N = span{e11, e12} needs degrees (0, 1), since
    # the right action of e12 moves e11 to e12; M's degrees stay right
    gm2 = GradedAlgebra(full_matrix_algebra(GF2, 2), c2, (0, 1, 1, 0))
    gctx = graded_corner_context(gm2, (1, 0, 0, 0))
    assert gctx.n_degrees == (0, 1)
    with pytest.raises(ValueError, match="N: right action breaks the grading"):
        GradedContext(gctx.context, gm2, gctx.graded_s, gctx.m_degrees, (0, 0))


def test_reverse_graded_context_twice_restores_degrees(gt2):
    gctx = graded_corner_context(gt2, E22)
    rev = reverse_graded_context(gctx)
    assert (rev.m_degrees, rev.n_degrees) == (gctx.n_degrees, gctx.m_degrees)
    assert (rev.graded_r, rev.graded_s) == (gctx.graded_s, gctx.graded_r)
    back = reverse_graded_context(rev)
    assert (back.m_degrees, back.n_degrees) == (gctx.m_degrees, gctx.n_degrees)
    assert (back.graded_r.degrees, back.graded_s.degrees) == (
        gctx.graded_r.degrees, gctx.graded_s.degrees)
    assert (back.context.phi, back.context.psi) == (gctx.context.phi, gctx.context.psi)


def test_graded_catalog_counts_match_the_smash_product(gt2):
    # graded A-modules are A#k[C2]*-modules: an oracle independent of the
    # graded layer, with the plain catalog's counts per dimension
    smash = smash_algebra(gt2)
    assert smash.dim == 6
    assert validate_algebra(smash) == []
    counts = [0] * 4
    for m in build_catalog(smash, 3):
        counts[m.dim] += 1
    graded_counts = [0] * 4
    for gm in build_graded_catalog(gt2, 3):
        graded_counts[gm.dim] += 1
    assert counts == graded_counts == [1, 4, 12, 28]


# ----------------------------------------------------------- graded engine


@pytest.fixture(scope="module")
def graded_fixture(gt2):
    gctx = graded_corner_context(gt2, E22)
    cat_r = build_graded_catalog(gt2, 3)
    cat_s = build_graded_catalog(gctx.graded_s, 3)
    return gctx, cat_r, cat_s


def test_graded_engine_passes_on_corner(graded_fixture):
    gctx, cat_r, cat_s = graded_fixture
    report = verify_graded_kato_muller(gctx, cat_r, cat_s)
    assert report.passed
    notes = [v.note for v in report.verdicts]
    assert "I = 2-dim, idempotent (exponent 1)" in notes
    assert "J = S (dim 1)" in notes


def test_graded_sampled_round_trip_miss_is_flagged(graded_fixture, monkeypatch):
    gctx, cat_r, cat_s = graded_fixture
    monkeypatch.setattr(graded, "is_graded_isomorphic", lambda m, n: IsoResult(None, False))
    report = verify_graded_kato_muller(gctx, cat_r, cat_s)
    trips = [v for v in report.verdicts if v.check == "graded round trip isomorphic"]
    assert len(trips) == len(cat_r) + len(cat_s)
    assert not any(v.passed for v in trips)
    assert all(v.note.endswith("sampled search (seed 0)") for v in trips)
    assert "sampled iso search (seed 0)" in report.flags and report.sampled


def test_graded_engine_records_suspension_invariance(graded_fixture):
    gctx, cat_r, cat_s = graded_fixture
    report = verify_graded_kato_muller(gctx, cat_r, cat_s)
    susp = [v for v in report.verdicts if "suspension" in v.check]
    assert len(susp) == len(cat_r) + len(cat_s)
    assert all(v.passed for v in susp)


def test_graded_engine_trivial_group_agrees_with_ungraded(t2):
    triv = GradedAlgebra.trivially_graded(t2)
    gctx = graded_corner_context(triv, E22)
    cat_r = build_graded_catalog(triv, 3)
    cat_s = build_graded_catalog(gctx.graded_s, 3)
    greport = verify_graded_kato_muller(gctx, cat_r, cat_s)
    ctx = corner_context(t2, E22)
    from moritakit.equivalence import build_catalog as bc
    report = verify_kato_muller(ctx, bc(t2, 3), bc(ctx.S, 3))
    assert greport.passed and report.passed
    graded_round = [v.passed for v in greport.verdicts if v.check == "graded round trip isomorphic"]
    plain_round = [v.passed for v in report.verdicts if v.check == "round trip isomorphic"]
    assert graded_round == plain_round


def test_graded_sampled_dedup_miss_marks_catalog_sampled(gt2, monkeypatch):
    monkeypatch.setattr(graded, "is_graded_isomorphic", lambda a, b: IsoResult(None, False))
    cat = build_graded_catalog(gt2, 2)
    assert not cat.exhaustive
    assert cat.provenance == "sampled(iso dedup seed=0)"


def test_hom_components_match_the_kernel_solve(graded_fixture):
    # selecting the canonical basis vectors by pivot degree gives exactly
    # the component the kernel solve finds, for every degree and pair
    gctx, cat_r, cat_s = graded_fixture
    group = gctx.graded_r.group
    for cat in (cat_r, cat_s):
        for a in cat:
            for b in cat:
                full = hom_space(a.base, b.base)
                degs = graded._hom_coord_degrees(group, a.degrees, b.degrees)
                for sigma in range(group.order):
                    got = graded._hom_component(full, degs, sigma)
                    want = hom_component_by_kernel(full, degs, sigma)
                    assert (got.basis.vectors, got.basis.pivots) == (want.basis.vectors,
                                                                     want.basis.pivots)
