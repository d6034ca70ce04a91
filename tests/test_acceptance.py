"""End-to-end acceptance runs: one test per headline guarantee, each
printing a single PASS line and holding to its time budget.

Every check recomputes its own inputs (catalogs included) inside the
timed window, so the bounds cover the full cost of reproducing the
result from scratch.
"""

import json
import os
import random
import time

from moritakit.algebra import full_matrix_algebra, upper_triangular_algebra
from moritakit.cli import main as cli_main
from moritakit.context import (
    closed_via_eta,
    compose_contexts,
    contexts_isomorphic,
    corner_context,
    eta_map,
    identity_context,
    trace_ideals,
)
from moritakit.equivalence import (
    build_catalog,
    verify_kato_muller,
    verify_projective_equivalence,
    verify_strict_equivalence,
)
from moritakit.exactlin import (
    Basis,
    Field,
    Matrix,
    basis_intersection,
    basis_sum,
    kernel_basis,
    rank,
    rref,
)
from moritakit.graded import (
    FiniteGroup,
    GradedAlgebra,
    build_graded_catalog,
    graded_corner_context,
    verify_graded_kato_muller,
)
from moritakit.modules import is_isomorphic, quotient_module, regular_module
from moritakit.torsion import (
    TorsionTheory,
    is_closed,
    is_torsion,
    is_torsion_free,
    localize,
    rel_injective_oracle,
    torsion_submodule,
)

GF2 = Field.gf(2)
E22 = (0, 0, 1)
E11_M2 = (1, 0, 0, 0)
WORKSPACE = os.path.join(os.path.dirname(__file__), "..", "workspaces", "t2_corner.json")


class Timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.bound, (
                f"ran {self.elapsed:.2f}s, budget {self.bound}s")
        return False


def announce(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_acceptance_01_strict_equivalence_on_matrix_corner():
    with Timer(5.0) as t:
        m2 = full_matrix_algebra(GF2, 2)
        ctx = corner_context(m2, E11_M2)
        i, j = trace_ideals(ctx)
        assert (i.dim, j.dim) == (4, 1)
        report = verify_strict_equivalence(
            ctx, build_catalog(m2, 4), build_catalog(ctx.S, 2))
        assert report.passed, report.failures()
    announce(1, f"strict equivalence on the 2x2 matrix corner ({t.elapsed:.2f}s)")


def test_acceptance_02_quotient_equivalence_on_triangular_corner():
    with Timer(30.0) as t:
        t2 = upper_triangular_algebra(GF2, 2)
        ctx = corner_context(t2, E22)
        report = verify_kato_muller(ctx, build_catalog(t2, 3), build_catalog(ctx.S, 3))
        assert report.passed, report.failures()
        notes = [v.note for v in report.verdicts]
        assert "I = 2-dim, idempotent (exponent 1)" in notes
        assert "J = S (dim 1)" in notes
        tt = TorsionTheory.from_ideal(t2, trace_ideals(ctx)[0])
        assert localize(tt, regular_module(t2)).module.dim == 1
    announce(2, f"quotient category equivalence on the triangular corner ({t.elapsed:.2f}s)")


def test_acceptance_03_three_closedness_criteria_agree():
    with Timer(60.0) as t:
        t2 = upper_triangular_algebra(GF2, 2)
        ctx = corner_context(t2, E22)
        tt = TorsionTheory.from_ideal(t2, trace_ideals(ctx)[0])
        reg = regular_module(t2)
        disagreements = []
        for x in build_catalog(t2, 4):
            a = is_closed(tt, x)
            oracle = rel_injective_oracle(tt, x, reg)
            assert oracle.exhaustive
            b = is_torsion_free(tt, x) and bool(oracle)
            c = closed_via_eta(ctx, x)
            if not (a == b == c):
                disagreements.append((x.dim, a, b, c))
        assert disagreements == []
    announce(3, f"closedness criteria agree on all 22 modules ({t.elapsed:.2f}s)")


def _fixture_contexts():
    t2 = upper_triangular_algebra(GF2, 2)
    m2 = full_matrix_algebra(GF2, 2)
    return corner_context(t2, E22), corner_context(m2, E11_M2)


def test_acceptance_04_eta_kernel_is_torsion():
    with Timer(5.0) as t:
        for ctx, max_dim in zip(_fixture_contexts(), (3, 4)):
            ideal, _ = trace_ideals(ctx)
            for x in build_catalog(ctx.R, max_dim):
                em = eta_map(ctx, x)
                outer_mod = em.outer.as_left_module()
                kern = kernel_basis(em.matrix)
                for a in ideal.basis.vectors:
                    act = outer_mod.action_of(a)
                    for v in kern.vectors:
                        assert all(GF2.is_zero(c) for c in act.apply(v))
    announce(4, f"trace ideal kills the kernel of eta everywhere ({t.elapsed:.2f}s)")


def test_acceptance_05_localization_laws():
    with Timer(10.0) as t:
        for ctx, max_dim in zip(_fixture_contexts(), (3, 4)):
            i, j = trace_ideals(ctx)
            sides = [(TorsionTheory.from_ideal(ctx.R, i), build_catalog(ctx.R, max_dim)),
                     (TorsionTheory.from_ideal(ctx.S, j), build_catalog(ctx.S, 2))]
            for tt, catalog in sides:
                for x in catalog:
                    loc = localize(tt, x)
                    assert kernel_basis(loc.canonical) == torsion_submodule(tt, x).basis
                    image = Basis.span(GF2, loc.module.dim, loc.canonical.columns())
                    coker, _ = quotient_module(loc.module, image)
                    assert is_torsion(tt, coker)
                    again = localize(tt, loc.module)
                    assert is_isomorphic(loc.module, again.module).found
    announce(5, f"localization laws on every catalog module ({t.elapsed:.2f}s)")


def test_acceptance_06_composition_algebra():
    with Timer(5.0) as t:
        m2 = full_matrix_algebra(GF2, 2)
        gamma = corner_context(m2, E11_M2)
        unit = identity_context(gamma.S)
        assert contexts_isomorphic(compose_contexts(gamma, unit), gamma).found
        delta = corner_context(gamma.S, gamma.S.unit)
        sigma = corner_context(delta.S, delta.S.unit)
        left = compose_contexts(compose_contexts(gamma, delta), sigma)
        right = compose_contexts(gamma, compose_contexts(delta, sigma))
        assert left.phi.entries == right.phi.entries
        assert left.psi.entries == right.psi.entries
    announce(6, f"composition has identities and is associative here ({t.elapsed:.2f}s)")


def test_acceptance_07_projective_class_equivalence():
    with Timer(60.0) as t:
        t2 = upper_triangular_algebra(GF2, 2)
        ctx = corner_context(t2, E22)
        report = verify_projective_equivalence(
            ctx, build_catalog(t2, 3), build_catalog(ctx.S, 3))
        assert report.passed, report.failures()
        assert not report.sampled
    announce(7, f"projective classes swap sides and return ({t.elapsed:.2f}s)")


def test_acceptance_08_graded_quotient_equivalence():
    with Timer(30.0) as t:
        t2 = upper_triangular_algebra(GF2, 2)
        gt2 = GradedAlgebra(t2, FiniteGroup.cyclic(2), (0, 1, 0))
        gctx = graded_corner_context(gt2, E22)
        report = verify_graded_kato_muller(
            gctx, build_graded_catalog(gt2, 3), build_graded_catalog(gctx.graded_s, 3))
        assert report.passed, report.failures()
        susp = [v for v in report.verdicts if "suspension" in v.check]
        assert susp and all(v.passed for v in susp)
    announce(8, f"graded equivalence with suspension invariance ({t.elapsed:.2f}s)")


def test_acceptance_09_exact_linear_algebra_bulk():
    with Timer(5.0) as t:
        rng = random.Random(20260822)
        fields = [Field.gf(2), Field.gf(5), Field.rationals()]
        counts = [400, 300, 300]
        for field, count in zip(fields, counts):
            for _ in range(count):
                rows = rng.randrange(1, 6)
                cols = rng.randrange(1, 6)

                def rand_matrix():
                    if field.is_prime_field:
                        ent = [[field.of_int(rng.randrange(field.p))
                                for _ in range(cols)] for _ in range(rows)]
                    else:
                        ent = [[field.of_int(rng.randint(-4, 4))
                                for _ in range(cols)] for _ in range(rows)]
                    return Matrix(field, ent, cols=cols)

                m = rand_matrix()
                assert rank(m) + kernel_basis(m).dim == cols
                red, piv = rref(m)
                red2, piv2 = rref(red)
                assert red2 == red and piv2 == piv
                n = rand_matrix()
                u = Basis.span(field, rows, m.columns())
                w = Basis.span(field, rows, n.columns())
                s = basis_sum(u, w)
                x = basis_intersection(u, w)
                assert s.dim + x.dim == u.dim + w.dim
    announce(9, f"exact linear algebra laws on 1000 random matrices ({t.elapsed:.2f}s)")


def test_acceptance_10_machine_reports_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["equiv", WORKSPACE, "--context", "t2corner", "--seed", "3",
            "--format", "machine"]
    code1 = cli_main(argv + ["--out", str(out1)])
    code2 = cli_main(argv + ["--out", str(out2)])
    capsys.readouterr()
    assert code1 == code2 == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert json.loads(b1)["seed"] == 3
    announce(10, "machine reports are byte-identical across runs")


def test_acceptance_11_three_vertex_catalog():
    # the quotients of R, then the extensions of each kept class by the
    # three simples: no walk over the 14,025 submodules of R^2
    with Timer(10.0) as t:
        cat = build_catalog(upper_triangular_algebra(GF2, 3), 3)
        assert cat.exhaustive
        assert [sum(1 for m in cat if m.dim == d) for d in range(4)] == [1, 3, 8, 17]
    announce(11, f"T3/GF(2) catalog to dim 3, Gabriel's A3 counts ({t.elapsed:.2f}s)")
