"""Contexts: corners, trace ideals, the canonical maps, composition."""

import pytest

import moritakit.context as context
from moritakit.algebra import Algebra, full_matrix_algebra, upper_triangular_algebra
from moritakit.context import (
    MoritaContext,
    bimodule_hom_space,
    compose_contexts,
    contexts_isomorphic,
    corner_context,
    eta_map,
    eta_prime_map,
    evaluation_counit,
    identity_context,
    is_strict,
    raw_pairing,
    reverse_context,
    rho_map,
    rho_prime_map,
    trace_ideals,
    validate_context,
)
from moritakit.exactlin import Basis, Field, Matrix, unit_vector
from moritakit.modules import (
    Bimodule,
    TensorProduct,
    direct_sum,
    ideal_action_image,
    quotient_module,
    regular_bimodule,
    regular_module,
)

from bruteforce import first_context_iso_lex

GF2 = Field.gf(2)
E22 = (GF2.zero, GF2.zero, GF2.one)
E11_M2 = (GF2.one, GF2.zero, GF2.zero, GF2.zero)


@pytest.fixture(scope="module")
def t2_corner(t2):
    return corner_context(t2, E22)


@pytest.fixture(scope="module")
def m2_corner(m2):
    return corner_context(m2, E11_M2)


def test_t2_corner_shape(t2_corner):
    ctx = t2_corner
    assert ctx.S.dim == 1
    assert ctx.M.dim == 2
    assert ctx.N.dim == 1
    assert ctx.MN.dim == 2
    assert ctx.NM.dim == 1
    assert validate_context(ctx) == []


def test_t2_corner_balancing_relation(t2, t2_corner):
    # e22 (x) e12 dies in N (x)_R M: it equals (e22.e11) (x) e12 with the
    # middle element pushed across
    rel = t2_corner.NM.relations
    assert rel.dim == 1
    assert rel.contains_vector((GF2.one, GF2.zero))


def test_t2_corner_trace_ideals(t2, t2_corner):
    i, j = trace_ideals(t2_corner)
    assert i.basis == Basis.span(GF2, 3, [(GF2.zero, GF2.one, GF2.zero), E22])
    assert j.dim == 1
    assert not is_strict(t2_corner)


def test_m2_corner_is_strict(m2_corner):
    i, j = trace_ideals(m2_corner)
    assert i.dim == 4
    assert j.dim == 1
    assert m2_corner.M.dim == 2 and m2_corner.N.dim == 2
    assert is_strict(m2_corner)
    assert validate_context(m2_corner) == []


def test_corner_rejects_non_idempotent(t2):
    with pytest.raises(ValueError):
        corner_context(t2, (GF2.zero, GF2.one, GF2.zero))


def test_identity_context_is_strict(t2):
    ctx = identity_context(t2)
    assert is_strict(ctx)
    i, j = trace_ideals(ctx)
    assert i.dim == t2.dim and j.dim == t2.dim


@pytest.mark.parametrize("alg", [
    upper_triangular_algebra(GF2, 2), full_matrix_algebra(Field.gf(3), 2),
    upper_triangular_algebra(Field.gf(3), 3), full_matrix_algebra(Field.rationals(), 3),
], ids=["T2-GF2", "M2-GF3", "T3-GF3", "M3-Q"])
def test_identity_context_is_the_regular_bimodule_with_multiplication(alg):
    # the corner at the unit against the context built directly: the
    # regular bimodule twice, both pairings the structure constants
    bim = regular_bimodule(alg)
    raw = Matrix.from_cols(alg.field, [alg.mul[i][j] for i in range(alg.dim) for j in range(alg.dim)],
                           rows=alg.dim)
    want = MoritaContext(alg, alg, bim, bim, raw, raw)
    got = identity_context(alg)
    assert (got.R, got.S, got.M, got.N, got.phi, got.psi) == (want.R, want.S, want.M, want.N,
                                                            want.phi, want.psi)
    for mine, theirs in ((got.MN, want.MN), (got.NM, want.NM)):
        assert all(getattr(mine, k) == getattr(theirs, k) for k in TensorProduct._fields)


def test_reverse_context_swaps_and_validates(t2_corner):
    rev = reverse_context(t2_corner)
    assert rev.R == t2_corner.S and rev.S == t2_corner.R
    assert validate_context(rev) == []
    i, j = trace_ideals(rev)
    i0, j0 = trace_ideals(t2_corner)
    assert i.basis == j0.basis and j.basis == i0.basis


def test_raw_map_must_respect_relations(t2, t2_corner):
    # psi_raw below sends the dead tensor e22 (x) e12 to 1
    bad_psi = Matrix(GF2, [[GF2.one, GF2.one]])
    good_phi_raw = t2_corner.phi @ t2_corner.MN.projection
    with pytest.raises(ValueError, match="not well-defined"):
        MoritaContext(
            t2, t2_corner.S, t2_corner.M, t2_corner.N, good_phi_raw, bad_psi)


@pytest.mark.parametrize("pairing, cols", [("phi", 1), ("phi", 5), ("psi", 1), ("psi", 5)])
def test_raw_pairing_of_the_wrong_shape_is_refused(t2, t2_corner, pairing, cols):
    # both raw product bases of the T2 corner have 2 columns
    raws = {"phi": raw_pairing(t2_corner), "psi": raw_pairing(reverse_context(t2_corner))}
    rows = raws[pairing].rows
    raws[pairing] = Matrix.zeros(GF2, rows, cols)
    with pytest.raises(ValueError, match=f"^{pairing} is {rows}x{cols}, want {rows}x2$"):
        MoritaContext(t2, t2_corner.S, t2_corner.M, t2_corner.N, raws["phi"], raws["psi"])


def test_raw_pairings_build_each_tensor_space_once(t2, t2_corner, monkeypatch):
    calls = []
    real = context.tensor_over

    def counting(middle, left, right):
        calls.append(middle)
        return real(middle, left, right)

    monkeypatch.setattr(context, "tensor_over", counting)
    ctx = MoritaContext(
        t2, t2_corner.S, t2_corner.M, t2_corner.N,
        t2_corner.phi @ t2_corner.MN.projection, t2_corner.psi @ t2_corner.NM.projection)
    assert len(calls) == 2
    assert (ctx.phi, ctx.psi) == (t2_corner.phi, t2_corner.psi)
    assert validate_context(ctx) == []


@pytest.mark.parametrize("field", [Field.gf(2), Field.gf(3), Field.rationals()],
                         ids=["GF2", "GF3", "Q"])
def test_raw_pairing_inverts_the_constructor(field):
    t2 = upper_triangular_algebra(field, 2)
    corner = corner_context(t2, (field.zero, field.zero, field.one))
    ident = identity_context(t2)
    m2_corner = corner_context(full_matrix_algebra(field, 2),
                               (field.one, field.zero, field.zero, field.zero))
    cases = [corner, ident, m2_corner, compose_contexts(ident, corner),
             compose_contexts(corner, reverse_context(corner)), reverse_context(corner),
             reverse_context(m2_corner)]
    for ctx in cases:
        raw = raw_pairing(ctx)
        for i in range(ctx.M.dim):
            for j in range(ctx.N.dim):
                pure = ctx.MN.pure_tensor(unit_vector(field, ctx.M.dim, i),
                                          unit_vector(field, ctx.N.dim, j))
                assert raw.col(i * ctx.N.dim + j) == ctx.phi.apply(pure)
        rebuilt = MoritaContext(ctx.R, ctx.S, ctx.M, ctx.N, raw, raw_pairing(reverse_context(ctx)))
        assert rebuilt.phi == ctx.phi and rebuilt.psi == ctx.psi


@pytest.mark.parametrize("field", [Field.gf(2), Field.gf(3), Field.rationals()],
                         ids=["GF2", "GF3", "Q"])
def test_eta_on_pure_tensors_is_pairing_then_action(field):
    # eta(m_i (x) n_j (x) x_k) = phi(m_i (x) n_j).x_k, with the pure tensor
    # and phi(m_i (x) n_j) both built without raw_pairing or the sections
    t2 = upper_triangular_algebra(field, 2)
    m2 = full_matrix_algebra(field, 2)
    corners = [corner_context(t2, (field.zero, field.zero, field.one)),
               corner_context(t2, (field.one, field.zero, field.zero)),
               corner_context(m2, (field.one, field.zero, field.zero, field.zero))]
    for ctx in corners + [reverse_context(c) for c in corners]:
        reg = regular_module(ctx.R)
        top, _ = quotient_module(reg, ideal_action_image(trace_ideals(ctx)[0], reg).basis)
        for x in (reg, top, direct_sum(reg, top)):
            em = eta_map(ctx, x)
            for i in range(ctx.M.dim):
                m_i = unit_vector(field, ctx.M.dim, i)
                for j in range(ctx.N.dim):
                    n_j = unit_vector(field, ctx.N.dim, j)
                    acts = x.action_of(ctx.phi.apply(ctx.MN.pure_tensor(m_i, n_j)))
                    for k in range(x.dim):
                        inner = em.inner.pure_tensor(n_j, unit_vector(field, x.dim, k))
                        pure = em.outer.pure_tensor(m_i, inner)
                        assert em.matrix.apply(pure) == acts.col(k)


def test_validate_reports_compatibility_break(t2, t2_corner):
    zero_phi = Matrix.zeros(GF2, t2.dim, t2_corner.M.dim * t2_corner.N.dim)
    broken = MoritaContext(t2, t2_corner.S, t2_corner.M, t2_corner.N, zero_phi,
                           raw_pairing(reverse_context(t2_corner)))
    failures = validate_context(broken)
    assert failures
    assert any("compatibility" in f for f in failures)


def test_eta_image_is_trace_ideal_times_module(t2, t2_corner, t2_regular):
    em = eta_map(t2_corner, t2_regular)
    i, _ = trace_ideals(t2_corner)
    expected = ideal_action_image(i, t2_regular)
    image = Basis.span(GF2, t2_regular.dim, em.matrix.columns())
    assert image == expected.basis
    assert em.outer.dim == 2


def test_eta_invertible_for_strict_context(m2, m2_corner):
    reg = regular_module(m2)
    em = eta_map(m2_corner, reg)
    assert em.matrix.rows == em.matrix.cols == 4
    assert em.matrix.is_invertible()


def test_rho_invertible_on_corner_side(t2_corner):
    # psi is onto S, so rho is invertible on every S-module
    s_reg = regular_module(t2_corner.S)
    rm = rho_map(t2_corner, s_reg)
    assert rm.matrix.rows == rm.matrix.cols == 1
    assert rm.matrix.is_invertible()


def test_eta_naturality_square(t2, t2_corner, t2_regular):
    # quotient by the span of e11, e12 is a module map out of the regular
    # module; eta must commute with it
    sub = Basis.span(GF2, 3, [(GF2.one, GF2.zero, GF2.zero), (GF2.zero, GF2.one, GF2.zero)])
    quo, proj = quotient_module(t2_regular, sub)
    ex = eta_map(t2_corner, t2_regular)
    ey = eta_map(t2_corner, quo)
    eye_n = Matrix.identity(GF2, t2_corner.N.dim)
    eye_m = Matrix.identity(GF2, t2_corner.M.dim)
    inner_map = ex.inner.induced_map(ey.inner, eye_n, proj)
    outer_map = ex.outer.induced_map(ey.outer, eye_m, inner_map)
    assert proj @ ex.matrix == ey.matrix @ outer_map


def test_eta_prime_detects_closed_and_non_closed(t2_corner, s1, s2, t2_regular):
    ep = eta_prime_map(t2_corner, s2)
    assert ep.matrix.rows == ep.matrix.cols == 1
    assert ep.matrix.is_invertible()
    # S1 is torsion: Hom over R from M into it vanishes
    ep1 = eta_prime_map(t2_corner, s1)
    assert ep1.target.dim == 0
    # the regular module maps onto a 1-dim hom space, so eta' cannot invert
    epr = eta_prime_map(t2_corner, t2_regular)
    assert epr.target.dim == 1
    assert epr.matrix.rows == 1 and epr.matrix.cols == 3


def test_rho_prime_invertible_over_corner_algebra(t2_corner):
    s_reg = regular_module(t2_corner.S)
    rp = rho_prime_map(t2_corner, s_reg)
    assert rp.matrix.rows == rp.matrix.cols == 1
    assert rp.matrix.is_invertible()


def test_evaluation_counit_image(t2, t2_corner, t2_regular):
    cu = evaluation_counit(t2_corner, t2_regular)
    assert cu.tensor.dim == 2
    image = Basis.span(GF2, 3, cu.matrix.columns())
    i, _ = trace_ideals(t2_corner)
    assert image == ideal_action_image(i, t2_regular).basis


def test_evaluation_counit_iso_for_identity(t2, t2_regular):
    ctx = identity_context(t2)
    cu = evaluation_counit(ctx, t2_regular)
    assert cu.matrix.rows == cu.matrix.cols == 3
    assert cu.matrix.is_invertible()


def test_compose_with_identity_on_the_right(t2, t2_corner):
    comp = compose_contexts(t2_corner, identity_context(t2_corner.S))
    assert validate_context(comp) == []
    res = contexts_isomorphic(comp, t2_corner)
    assert res.found and res.exhaustive
    # the witness really carries one pairing to the other
    u, v = res.map_
    carried = t2_corner.phi @ comp.MN.induced_map(t2_corner.MN, u, v)
    assert carried == comp.phi


def test_compose_with_identity_on_the_left(t2, t2_corner):
    comp = compose_contexts(identity_context(t2), t2_corner)
    assert validate_context(comp) == []
    res = contexts_isomorphic(comp, t2_corner)
    assert res.found and res.exhaustive


def test_compose_strict_contexts_stays_strict(m2, m2_corner):
    comp = compose_contexts(m2_corner, identity_context(m2_corner.S))
    assert is_strict(comp)
    assert validate_context(comp) == []


def test_compose_needs_shared_middle(t2, m2, t2_corner, m2_corner):
    with pytest.raises(ValueError):
        compose_contexts(t2_corner, m2_corner)


def test_nested_corner_composition_associative_entrywise(m2, m2_corner):
    # all middle algebras are 1-dimensional and spanned by their units, so
    # the balanced tensor products carry no relations and both bracketings
    # land on identical computed bases
    one = identity_context(m2_corner.S)
    left = compose_contexts(compose_contexts(m2_corner, one), one)
    right = compose_contexts(m2_corner, compose_contexts(one, one))
    assert left.phi == right.phi
    assert left.psi == right.psi
    assert left.M.left_action == right.M.left_action
    assert left.M.right_action == right.M.right_action
    assert left.N.left_action == right.N.left_action
    assert left.N.right_action == right.N.right_action


def test_context_iso_rejects_mismatched_pairs(t2, t2_corner):
    with pytest.raises(ValueError):
        contexts_isomorphic(t2_corner, identity_context(t2))


def test_context_iso_trace_ideal_prune(t2, t2_corner):
    zero_phi = Matrix.zeros(GF2, t2.dim, t2_corner.M.dim * t2_corner.N.dim)
    zero_psi = Matrix.zeros(GF2, 1, t2_corner.N.dim * t2_corner.M.dim)
    degenerate = MoritaContext(t2, t2_corner.S, t2_corner.M, t2_corner.N, zero_phi, zero_psi)
    assert validate_context(degenerate) == []
    res = contexts_isomorphic(t2_corner, degenerate)
    assert res.proven_none


def test_context_iso_reflexive_on_degenerate_pairings(t2, t2_corner):
    zero_phi = Matrix.zeros(GF2, t2.dim, t2_corner.M.dim * t2_corner.N.dim)
    zero_psi = Matrix.zeros(GF2, 1, t2_corner.N.dim * t2_corner.M.dim)
    degenerate = MoritaContext(t2, t2_corner.S, t2_corner.M, t2_corner.N, zero_phi, zero_psi)
    res = contexts_isomorphic(degenerate, degenerate)
    assert res.found
    assert all(x.is_invertible() for x in res.map_)


def test_context_iso_sampled_miss_is_not_a_proof():
    # A = GF(2)[x]/(x^2) with basis (1, x); x acts as 0 on M = k and on
    # N1 = k^4, and as the shift of A on the A summand of N2 = A + k + k.
    # Both pairings are zero, so every u leaves v free in the 12-dim
    # Hom(N1, N2); 2**12 is past the exhaustive cap and v is sampled.
    a = Algebra(GF2, 2, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0))

    def bimodule(dim, x_action):
        acts = [Matrix.identity(GF2, dim), Matrix(GF2, x_action)]
        return Bimodule(a, a, dim, acts, acts)

    m = bimodule(1, [[0]])
    n1 = bimodule(4, [[0] * 4] * 4)
    n2 = bimodule(4, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    c1, c2 = (MoritaContext(a, a, m, n, Matrix.zeros(GF2, 2, 4), Matrix.zeros(GF2, 2, 4))
              for n in (n1, n2))
    assert validate_context(c1) == [] and validate_context(c2) == []
    assert bimodule_hom_space(n1, n2).dim == 12
    res = contexts_isomorphic(c1, c2)
    assert not res.found
    assert not res.exhaustive
    assert not res.proven_none


def test_context_iso_of_zero_bimodules_is_the_empty_pair(t2):
    # M = N = 0: the bimodule Hom spaces are 0, and the 0x0 maps are isos
    empty = Matrix.zeros(GF2, 0, 0)
    zero = Bimodule(t2, t2, 0, [empty] * 3, [empty] * 3)
    ctx = MoritaContext(t2, t2, zero, zero, Matrix.zeros(GF2, 3, 0), Matrix.zeros(GF2, 3, 0))
    assert validate_context(ctx) == []
    res = contexts_isomorphic(ctx, ctx)
    assert res.found and res.exhaustive
    assert res.map_ == (empty, empty)


def test_bimodule_hom_space_of_corner_m(t2_corner):
    h = bimodule_hom_space(t2_corner.M, t2_corner.M)
    # M = (column of T2 at e22) has a 1-dimensional bimodule endo space
    assert h.dim == 1
    assert h.matrices[0].is_invertible()


# GF(2)[x]/(x^2) on the basis (1, x); its bimodules below have x acting
# the same on both sides, and every pairing of them lands in span(x)
DUAL = Algebra(GF2, 2, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0))


def _dual_bimodule(*parts):
    """The direct sum of the parts, "A" the algebra (x the shift) and "k"
    the simple (x zero), as a DUAL-bimodule."""
    d = sum(2 if part == "A" else 1 for part in parts)
    x = [[0] * d for _ in range(d)]
    at = 0
    for part in parts:
        if part == "A":
            x[at + 1][at] = 1
        at += 2 if part == "A" else 1
    acts = [Matrix.identity(GF2, d), Matrix(GF2, x)]
    return Bimodule(DUAL, DUAL, d, acts, acts)


def _dual_context(m, n, phi_x=None, psi_x=None):
    """The context on m and n whose pairings send the raw basis pairs to
    phi_x[j] x and psi_x[j] x; zero pairings when not given."""
    width = m.dim * n.dim
    phi_x, psi_x = phi_x or [0] * width, psi_x or [0] * width
    ctx = MoritaContext(DUAL, DUAL, m, n, Matrix(GF2, [[0] * width, phi_x]),
                        Matrix(GF2, [[0] * width, psi_x]))
    assert validate_context(ctx) == []
    return ctx


def test_context_iso_matches_the_lex_sweep_on_zero_pairings():
    # zero pairings leave every v free: the particular solution is 0 and the
    # slack is the whole Hom(N1, N2) in its own coordinates, so the v-walk
    # is the lex sweep of that Hom space
    ns = [_dual_bimodule(*parts) for parts in ("Ak", "kkk", "AA", "Akk", "kkkk")]
    outcomes = set()
    for m in (_dual_bimodule("k"), _dual_bimodule("A")):
        for n1 in ns:
            for n2 in ns:
                if n1.dim != n2.dim or bimodule_hom_space(n1, n2).dim > 8:
                    continue
                c1, c2 = _dual_context(m, n1), _dual_context(m, n2)
                res = contexts_isomorphic(c1, c2)
                assert (res.map_ or (None, None)) == first_context_iso_lex(c1, c2)
                assert res.exhaustive
                outcomes.add(res.found)
    assert outcomes == {True, False}


def test_context_iso_unequal_dims_are_a_proven_none(monkeypatch):
    # both trace ideals are 0, so only the dims of N tell the contexts apart
    monkeypatch.setattr(context, "bimodule_hom_space", None)
    m = _dual_bimodule("k")
    res = contexts_isomorphic(_dual_context(m, _dual_bimodule("k")),
                              _dual_context(m, _dual_bimodule("k", "k")))
    assert res.proven_none


def test_context_iso_zero_bimodule_hom_is_a_proven_none(t2):
    # M1 and M2 are the simple bimodules at the two vertices of T2: no map
    # between them intertwines the left actions
    def simple(vertex):
        acts = [Matrix(GF2, [[int(i == vertex)]]) for i in (0, 1, 2)]
        return Bimodule(t2, t2, 1, acts, acts)

    n = simple(0)
    c1, c2 = (MoritaContext(t2, t2, m, n, Matrix.zeros(GF2, 3, 1), Matrix.zeros(GF2, 3, 1))
              for m in (simple(0), simple(2)))
    assert validate_context(c1) == [] and validate_context(c2) == []
    assert bimodule_hom_space(c1.M, c2.M).dim == 0
    res = contexts_isomorphic(c1, c2)
    assert res.proven_none


def test_context_iso_exits_on_unsolvable_and_on_rigid_singular_v(monkeypatch):
    # M = k and N = k^2 pair through functionals l, l' on N: phi(m (x) n)
    # = l(n) x and psi(n (x) m) = l'(n) x.  c_a has l = l' = (1, 0), c_b
    # has l = (1, 0), l' = (0, 1).  Carrying c_b to c_a asks l(v n) for
    # both functionals at once: no v solves it.  Carrying c_a to c_b fixes
    # both rows of v to (1, 0): one solution, singular, with no slack.
    m, n = _dual_bimodule("k"), _dual_bimodule("k", "k")
    c_a = _dual_context(m, n, [1, 0], [1, 0])
    c_b = _dual_context(m, n, [1, 0], [0, 1])
    assert trace_ideals(c_a)[0].basis == trace_ideals(c_b)[0].basis
    assert trace_ideals(c_a)[1].basis == trace_ideals(c_b)[1].basis
    solved, slack = [], []
    real_solve, real_kernel = context.solve, context.kernel_basis
    monkeypatch.setattr(context, "solve", lambda a, b: solved.append(real_solve(a, b)) or solved[-1])
    monkeypatch.setattr(context, "kernel_basis", lambda a: slack.append(real_kernel(a)) or slack[-1])

    assert contexts_isomorphic(c_b, c_a).proven_none
    assert solved == [None] and slack == []

    solved.clear()
    assert contexts_isomorphic(c_a, c_b).proven_none
    assert len(solved) == 1 and solved[0] is not None
    assert [k.dim for k in slack] == [0]
