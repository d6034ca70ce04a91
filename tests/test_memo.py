"""The functor memo: open for exactly one call of a scoped entry point,
keyed by value, and one solve per distinct argument tuple inside it."""

import sys

import pytest

import moritakit.equivalence as equivalence
import moritakit.graded as graded
import moritakit.modules as modules
import moritakit.torsion as torsion
from moritakit.algebra import Algebra, upper_triangular_algebra
from moritakit.context import corner_context
from moritakit.equivalence import build_catalog, verify_kato_muller
from moritakit.exactlin import Field
from moritakit.graded import (
    FiniteGroup,
    GradedAlgebra,
    build_graded_catalog,
    graded_corner_context,
    verify_graded_kato_muller,
)
from moritakit.modules import Bimodule, LeftModule, RightModule, regular_bimodule, regular_module

GF2 = Field.gf(2)
E22 = (0, 0, 1)


@pytest.fixture(scope="module")
def corner(t2):
    ctx = corner_context(t2, E22)
    return ctx, build_catalog(t2, 3), build_catalog(ctx.S, 3)


@pytest.fixture(scope="module")
def graded_corner(t2):
    gt2 = GradedAlgebra(t2, FiniteGroup.cyclic(2), (0, 1, 0))
    gctx = graded_corner_context(gt2, E22)
    return gctx, build_graded_catalog(gt2, 3), build_graded_catalog(gctx.graded_s, 3)


def count_solves(monkeypatch) -> list:
    """Patch modules.sparse_kernel_basis, which every hom_space solve
    calls once; each call appends whether a memo was open."""
    seen = []
    solve = modules.sparse_kernel_basis

    def counted(*args):
        seen.append(modules._MEMO.get() is not None)
        return solve(*args)

    monkeypatch.setattr(modules, "sparse_kernel_basis", counted)
    return seen


def spy_everywhere(monkeypatch, original, replacement) -> None:
    """Bind replacement wherever a moritakit namespace binds original, as
    `from .x import f` copies f into each importing module."""
    for name, mod in list(sys.modules.items()):
        if name == "moritakit" or name.startswith("moritakit."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, replacement)


@pytest.mark.parametrize("entry", ["kato-muller", "graded kato-muller", "graded catalog"])
def test_each_scoped_entry_holds_its_memo_for_the_call_only(monkeypatch, corner, graded_corner, entry):
    calls = {
        "kato-muller": lambda: verify_kato_muller(*corner),
        "graded kato-muller": lambda: verify_graded_kato_muller(*graded_corner),
        "graded catalog": lambda: build_graded_catalog(graded_corner[0].graded_r, 2),
    }
    seen = count_solves(monkeypatch)
    calls[entry]()
    assert seen and all(seen)
    assert modules._MEMO.get() is None


@pytest.mark.parametrize("namespace, verifier, fixture", [
    (equivalence, verify_kato_muller, "corner"),
    (graded, verify_graded_kato_muller, "graded_corner"),
], ids=["kato-muller", "graded kato-muller"])
def test_a_raising_verifier_closes_its_memo(request, monkeypatch, namespace, verifier, fixture):
    def broken(tt, x):
        raise AssertionError("localization contract broken")

    monkeypatch.setattr(namespace, "localize", broken)
    with pytest.raises(AssertionError, match="localization contract broken"):
        verifier(*request.getfixturevalue(fixture))
    assert modules._MEMO.get() is None


def test_successive_calls_each_do_their_own_solves(monkeypatch, corner):
    seen = count_solves(monkeypatch)
    first = verify_kato_muller(*corner)
    once = len(seen)
    second = verify_kato_muller(*corner)
    assert once > 0
    assert len(seen) == 2 * once
    assert first.verdicts == second.verdicts


def test_a_verifier_inside_an_open_scope_reuses_it(monkeypatch, corner):
    seen = count_solves(monkeypatch)
    with modules._memo_scope():
        memo = modules._MEMO.get()
        first = verify_kato_muller(*corner)
        assert modules._MEMO.get() is memo
        filled, once = len(memo), len(seen)
        second = verify_kato_muller(*corner)
        assert modules._MEMO.get() is memo
    assert modules._MEMO.get() is None
    assert filled > 0 and once > 0
    # the second run's theories are new objects, keyed by identity, but
    # every hom space they solve for is already in the shared memo
    assert len(seen) == once
    assert first.verdicts == second.verdicts


def test_one_solve_per_distinct_pair_and_module(monkeypatch, graded_corner):
    # hom_space solves against the real memo, counted at sparse_kernel_basis;
    # closedness_map re-memoized around a counting copy of the same function
    pairs, closed_args, closed_runs = [], [], []
    hom_space, closedness_map = modules.hom_space, torsion.closedness_map

    def hom_spy(source, target):
        pairs.append((source, target))
        return hom_space(source, target)

    def counted(tt, x):
        closed_runs.append(x)
        return closedness_map.__wrapped__(tt, x)

    memoized = modules._memoized(counted)

    def closed_spy(tt, x):
        closed_args.append((id(tt), x))
        return memoized(tt, x)

    spy_everywhere(monkeypatch, hom_space, hom_spy)
    spy_everywhere(monkeypatch, closedness_map, closed_spy)
    seen = count_solves(monkeypatch)
    assert verify_graded_kato_muller(*graded_corner).passed
    assert len(seen) == len(set(pairs)) < len(pairs)
    assert len(closed_runs) == len(set(closed_args)) < len(closed_args)


def test_equal_objects_built_apart_hash_equal():
    t2a, t2b = upper_triangular_algebra(GF2, 2), upper_triangular_algebra(GF2, 2)
    assert t2a is not t2b and hash(t2a) == hash(t2b)
    ma, mb = regular_module(t2a), regular_module(t2b)
    assert ma == mb and hash(ma) == hash(mb)
    ba, bb = regular_bimodule(t2a), regular_bimodule(t2b)
    assert ba == bb and hash(ba) == hash(bb)
    ra, rb = ba.right_module(), bb.right_module()
    assert ra == rb and hash(ra) == hash(rb)


def test_cached_hash_is_the_hash_of_the_defining_tuple():
    alg = upper_triangular_algebra(GF2, 2)
    assert hash(alg) == alg._hash == hash((alg.field, alg.dim, alg.mul, alg.unit))
    m = regular_module(alg)
    assert hash(m) == m._hash == hash((alg, m.dim, m.action))
    r = regular_bimodule(alg).right_module()
    assert hash(r) == r._hash == hash(("right", alg, r.dim, r.action))
    b = regular_bimodule(alg)
    assert hash(b) == b._hash == hash((alg, alg, b.dim, b.left_action, b.right_action))


def test_objects_made_without_init_hash_like_the_others(t2):
    alg = object.__new__(Algebra)
    alg.field, alg.dim, alg.mul, alg.unit = t2.field, t2.dim, t2.mul, t2.unit
    assert alg == t2 and hash(alg) == hash(t2)
    reg = regular_module(t2)
    for cls, made in ((LeftModule, reg), (RightModule, regular_bimodule(t2).right_module())):
        bare = object.__new__(cls)
        bare.algebra, bare.dim, bare.action = alg, made.dim, made.action
        assert bare == made and hash(bare) == hash(made)
    bim = regular_bimodule(t2)
    bare = object.__new__(Bimodule)
    bare.left_algebra, bare.right_algebra, bare.dim = alg, alg, bim.dim
    bare.left_action, bare.right_action = bim.left_action, bim.right_action
    assert bare == bim and hash(bare) == hash(bim)
    assert bare.left_module() is bare.left_module() == bim.left_module()


def test_a_catalog_build_holds_its_memo_for_the_call_only(monkeypatch, t2):
    # every solve of the build sees one memo, so the End solve behind a
    # class's key serves every later search against that class
    seen = count_solves(monkeypatch)
    build_catalog(t2, 4)
    assert seen and all(seen)
    assert modules._MEMO.get() is None
