"""The four workloads: seeded inputs, task lists, and checks of every
output against the hand-made references in reference.json.

A workload's setup(lib, seed) builds its inputs through the library
namespace ``lib`` and returns (tasks_for, setup_errors), where
tasks_for(k) is the task list of pass k.  Where the seed picks bases, each
pass gets bases of its own, drawn from (seed, k), so that a run's median
covers several draws.  Each task is one library call or one CLI command;
its run() is what the benchmark times, and its check() compares the
output with the reference afterwards, outside the timed region.  Tasks
look library functions up at call time, so that the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKSPACES = os.path.join(ROOT, "workspaces")

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)
CLASSES = {k: v["counts"] for k, v in REFERENCE["classes_per_dim"].items()}

E22_T2 = (0, 0, 1)
E11_M2 = (1, 0, 0, 0)
E11_M3 = (1, 0, 0, 0, 0, 0, 0, 0, 0)
USER_SUPPLIED = ["sampled catalog: user-supplied"]


class Task(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # a mismatch description, or None


class Workload(NamedTuple):
    name: str
    setup: Callable  # (lib, seed) -> (tasks_for, setup_errors); tasks_for(k) lists pass k's tasks
    min_passes: int


def fixed(tasks):
    """Every pass runs the same inputs."""
    return lambda k: tasks


def per_pass(make):
    """Pass k runs inputs make(k); pass 0's are made now, in the set-up."""
    first = make(0)
    return lambda k: first if k == 0 else make(k)


def pass_rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}/{k}")


# ------------------------------------------------------------ seeded bases


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _inverse_unit_lower(low):
    n = len(low)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(low[i][k] * inv[k][j] for k in range(j, i))
    return inv


def unimodular(rng: random.Random, n: int):
    """A random integer matrix P of determinant 1 and its integer inverse:
    P = L U with unit-triangular L, U whose other entries are in {-1, 0, 1}.
    Being unimodular, P is invertible over every field."""
    low = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(n)]
          for i in range(n)]
    p = _matmul(low, up)
    p_inv = _matmul(_transpose(_inverse_unit_lower(_transpose(up))), _inverse_unit_lower(low))
    if _matmul(p, p_inv) != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise AssertionError("unimodular inverse is wrong")
    return p, p_inv


def signed_permutation(rng: random.Random, n: int):
    """A random signed permutation matrix and its inverse (its transpose).
    Denser conjugations make the cost of a rational pass depend on the seed
    (one elementary shear: up to 40% between seeds) or take minutes (a
    dense unimodular matrix), so the rational workload uses these."""
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    return mat, _transpose(mat)


def rebase_algebra(lib, alg, rng: random.Random):
    """The same GF(p) algebra written in the basis formed by the columns of
    a random unimodular matrix P: new structure constants are the old
    coordinates of P e_i * P e_j, mapped back by P^-1."""
    p, n = alg.field.p, alg.dim
    mat, inv = unimodular(rng, n)
    new_basis = [[mat[r][i] for r in range(n)] for i in range(n)]

    def product(x, y):
        out = [0] * n
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                if a and b:
                    for k, c in enumerate(alg.mul[i][j]):
                        out[k] += a * b * c
        return out

    def coords(v):
        return tuple(sum(inv[r][k] * v[k] for k in range(n)) % p for r in range(n))

    mul = [[coords(product(x, y)) for y in new_basis] for x in new_basis]
    return lib.algebra.Algebra(alg.field, n, mul, coords(alg.unit))


def conjugate_module(lib, mod, rng: random.Random):
    """The module with every action matrix A replaced by P A P^-1, for a
    random signed permutation P; an isomorphic copy in another basis."""
    field, n = mod.algebra.field, mod.dim
    mat, inv = signed_permutation(rng, n)
    acts = []
    for a in mod.action:
        ent = [[Fraction(x) for x in row] for row in a.entries]
        conj = _matmul(_matmul(mat, ent), inv)
        acts.append(lib.exactlin.Matrix(field, conj, cols=n))
    return lib.modules.LeftModule(mod.algebra, n, acts)


# ----------------------------------------------------------------- checks


def catalog_mismatch(cat, counts, max_dim: int) -> Optional[str]:
    """Classes per dimension and an exhaustive provenance."""
    got = [0] * (max_dim + 1)
    for m in cat:
        if m.dim > max_dim:
            return f"member of dim {m.dim} above the bound {max_dim}"
        got[m.dim] += 1
    want = counts[: max_dim + 1]
    if got != want:
        return f"classes per dim {got}, want {want}"
    if cat.provenance != f"exhaustive-up-to-dim({max_dim})":
        return f"provenance {cat.provenance!r} is not exhaustive"
    return None


def report_check(verdicts: int, flags=()) -> Callable:
    """A passing report with the given verdict count and flags."""
    def check(report) -> Optional[str]:
        if not report.passed:
            bad = [f"{v.subject}: {v.check}" for v in report.failures()][:3]
            return f"report fails: {bad} flags {report.flags}"
        if len(report.verdicts) != verdicts:
            return f"{len(report.verdicts)} verdicts, want {verdicts}"
        if list(report.flags) != list(flags):
            return f"flags {report.flags}, want {list(flags)}"
        return None
    return check


# ---------------------------------------------------------------- catalog

CATALOG_CASES = (  # label, algebra family, p, max_dim, class counts key
    ("T2/GF(2)<=4", "upper_triangular_algebra", 2, 4, "T2"),
    ("T2/GF(3)<=3", "upper_triangular_algebra", 3, 3, "T2"),
    ("M2/GF(2)<=4", "full_matrix_algebra", 2, 4, "M2"),
)


def catalog_setup(lib, seed: int):
    cases = [(label, getattr(lib.algebra, family)(lib.exactlin.Field.gf(p), 2), max_dim, CLASSES[key])
             for label, family, p, max_dim, key in CATALOG_CASES]

    def make(k):
        rng = pass_rng(seed, k)
        tasks = []
        for label, alg, max_dim, counts in cases:
            if seed:
                alg = rebase_algebra(lib, alg, rng)
            tasks.append(Task(
                label,
                lambda alg=alg, d=max_dim: lib.equivalence.build_catalog(alg, d),
                lambda cat, counts=counts, d=max_dim: catalog_mismatch(cat, counts, d)))
        return tasks

    return per_pass(make), []


# ----------------------------------------------------------------- verify


def _sizes(key: str, max_dim: int) -> int:
    return sum(CLASSES[key][: max_dim + 1])


def verify_setup(lib, seed: int):
    gf = lib.exactlin.Field.gf
    build = lambda alg, d: lib.equivalence.build_catalog(alg, d)  # noqa: E731
    errors = []

    def corner(alg, e, key, max_dim):
        ctx = lib.context.corner_context(alg, e)
        cat_r, cat_s = build(alg, max_dim), build(ctx.S, max_dim)
        errors.append(catalog_mismatch(cat_r, CLASSES[key], max_dim))
        errors.append(catalog_mismatch(cat_s, CLASSES["field"], max_dim))
        return ctx, cat_r, cat_s

    t2 = lib.algebra.upper_triangular_algebra(gf(2), 2)
    c1 = corner(t2, E22_T2, "T2", 4)
    c2 = corner(lib.algebra.upper_triangular_algebra(gf(3), 2), E22_T2, "T2", 3)
    c3 = corner(lib.algebra.full_matrix_algebra(gf(2), 2), E11_M2, "M2", 4)
    galg = lib.graded.GradedAlgebra(t2, lib.graded.FiniteGroup.cyclic(2), (0, 1, 0))
    gctx = lib.graded.graded_corner_context(galg, E22_T2)
    g_r = lib.graded.build_graded_catalog(gctx.graded_r, 3)
    g_s = lib.graded.build_graded_catalog(gctx.graded_s, 3)
    errors.append(catalog_mismatch(g_r, CLASSES["T2_graded_C2"], 3))
    errors.append(catalog_mismatch(g_s, CLASSES["field_graded_C2"], 3))

    n1r, n1s = _sizes("T2", 4), _sizes("field", 4)
    n2r, n2s = _sizes("T2", 3), _sizes("field", 3)
    n3r, n3s = _sizes("M2", 4), _sizes("field", 4)
    eq = lib.equivalence
    tasks = [
        # two trace-ideal verdicts, then closed-image and round-trip per module
        Task("kato_muller T2/GF(2)", lambda: eq.verify_kato_muller(*c1),
             report_check(2 + 2 * (n1r + n1s))),
        Task("kato_muller T2/GF(3)", lambda: eq.verify_kato_muller(*c2),
             report_check(2 + 2 * (n2r + n2s))),
        # eta / rho per module, naturality on every pair of nonzero modules
        # (over M2 and over a field only the zero module has no maps)
        Task("strict M2/GF(2)", lambda: eq.verify_strict_equivalence(*c3, seed=seed),
             report_check(n3r + n3s + (n3r - 1) ** 2 + (n3s - 1) ** 2)),
        Task("one_epi M2/GF(2)", lambda: eq.verify_one_epi(*c3),
             report_check(3 * n3r)),
        # members are the sums of copies of P2 = T2 e22 on the R side and
        # every module on the S side; two verdicts per member plus two sizes
        Task("projective T2/GF(2)", lambda: eq.verify_projective_equivalence(*c1),
             report_check(2 + 2 * (4 // 2 + 1) + 2 * n1s)),
        Task("projective T2/GF(3)", lambda: eq.verify_projective_equivalence(*c2),
             report_check(2 + 2 * (3 // 2 + 1) + 2 * n2s)),
        # per module: one suspension check (C2) plus closed image and round trip
        Task("graded_kato_muller T2/GF(2) C2",
             lambda: lib.graded.verify_graded_kato_muller(gctx, g_r, g_s),
             report_check(2 + 3 * (_sizes("T2_graded_C2", 3) + _sizes("field_graded_C2", 3)))),
    ]
    return fixed(tasks), errors


# --------------------------------------------------------------- rational


def rational_setup(lib, seed: int):
    qq = lib.exactlin.QQ
    r = lib.algebra.full_matrix_algebra(qq, 3)
    ctx = lib.context.corner_context(r, E11_M3)
    mods = lib.modules
    # the column module: e_ij acts on Q^3 as the matrix unit E_ij
    units = []
    for i in range(3):
        for j in range(3):
            ent = [[Fraction(int((a, b) == (i, j))) for b in range(3)] for a in range(3)]
            units.append(lib.exactlin.Matrix(qq, ent, cols=3))
    v = mods.LeftModule(r, 3, units)
    reg = mods.regular_module(r)
    s1 = mods.regular_module(ctx.S)
    s2 = mods.direct_sum(s1, s1)
    r_side = [v, mods.direct_sum(v, v), reg, mods.direct_sum(reg, v)]
    s_side = [s1, s2, mods.direct_sum(s2, s1)]
    nr, ns = len(r_side), len(s_side)
    eq = lib.equivalence

    def make(k):
        rng = pass_rng(seed, k)
        rs, ss = r_side, s_side
        if seed:
            rs = [conjugate_module(lib, m, rng) for m in r_side]
            ss = [conjugate_module(lib, m, rng) for m in s_side]
        cat_r = eq.user_catalog(r, rs)
        cat_s = eq.user_catalog(ctx.S, ss)
        # the seed drives the conjugations only; naturality sampling keeps seed 0
        return [
            # M3(Q) is simple, so every pair of nonzero modules has maps
            Task("strict M3(Q)", lambda: eq.verify_strict_equivalence(ctx, cat_r, cat_s),
                 report_check(nr + ns + nr * nr + ns * ns, USER_SUPPLIED)),
            Task("kato_muller M3(Q)", lambda: eq.verify_kato_muller(ctx, cat_r, cat_s),
                 report_check(2 + 2 * (nr + ns), USER_SUPPLIED)),
            Task("one_epi M3(Q)", lambda: eq.verify_one_epi(ctx, cat_r, cat_s),
                 report_check(3 * nr, USER_SUPPLIED)),
        ]

    return per_pass(make), []


# -------------------------------------------------------------------- cli

_SEED_LINE = re.compile(r'^  "seed": -?\d+,$', re.M)


def report_digest(text: str) -> str:
    """sha256 of a machine report with its top-level seed field set to 0."""
    return hashlib.sha256(_SEED_LINE.sub('  "seed": 0,', text).encode()).hexdigest()


def run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_check(entry: dict, seed: int) -> Callable:
    first = []

    def check(result) -> Optional[str]:
        code, text, err = result
        if code != entry["exit"]:
            return f"exit {code}, want {entry['exit']} {err.strip()}"
        if not first:
            first.append(text)
        elif text != first[0]:
            return "report bytes differ between passes"
        if seed == 0 or not entry.get("seed_dependent"):
            if report_digest(text) != entry["sha256"]:
                return "report sha256 differs from the pinned one"
        else:
            summary = json.loads(text)["summary"]
            if (summary["verdict_count"], summary["failure_count"]) != (entry["verdicts"], 0):
                return f"summary {summary}, want {entry['verdicts']} verdicts, none failing"
        return None

    return check


def cli_setup(lib, seed: int):
    tasks = []
    for entry in REFERENCE["cli"]["commands"]:
        argv = list(entry["argv"])
        argv[1] = os.path.join(WORKSPACES, argv[1])
        argv += ["--format", "machine", "--seed", str(seed)]
        tasks.append(Task(" ".join(entry["argv"]),
                          lambda argv=argv: run_cli(lib, argv),
                          cli_check(entry, seed)))
    return fixed(tasks), []


WORKLOADS = {
    w.name: w for w in (
        Workload("catalog", catalog_setup, 3),
        Workload("verify", verify_setup, 5),
        Workload("rational", rational_setup, 3),
        # at least 100 commands, so that 10 samples lie beyond p90
        Workload("cli", cli_setup, 5),
    )
}
