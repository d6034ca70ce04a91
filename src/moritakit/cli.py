"""Command-line front end: load a workspace file, run one verification
command, and emit a human or machine report.

Exit codes: 0 when every verdict passes, 1 when some verdict fails (or,
under --strict-sampling, when the run sampled), 2 on usage or input
errors, 3 when an internal invariant breaks (a bug, not a verdict; stderr
names the invariant).  Machine reports are a single JSON
document and are byte-identical across runs with the same workspace,
flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .context import compose_contexts, contexts_isomorphic, is_strict, validate_context
from .equivalence import (
    Report,
    build_catalog,
    record_trace_ideals,
    user_catalog,
    verify_kato_muller,
    verify_projective_equivalence,
    verify_strict_equivalence,
)
from .exactlin import Matrix
from .graded import build_graded_catalog, verify_graded_kato_muller
from .modules import DEFAULT_LATTICE_BUDGET
from .torsion import TorsionTheory, is_closed, is_torsion_free, localize, torsion_submodule
from .workspace import WorkspaceError, matrix_to_json, parse_workspace

_DEFAULT_CATALOG_DIM = 3  # catalog bound without --max-dim or a workspace recipe


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command is a positional argument with the handlers
    as its choices, next to the flags every command shares."""
    parser = argparse.ArgumentParser(
        prog="moritakit",
        description="exact verification of context, torsion, and equivalence facts")
    parser.add_argument("command", choices=_HANDLERS, metavar="command",
                        help="one of: " + ", ".join(_HANDLERS))
    parser.add_argument("workspace", help="path to a workspace JSON file")
    parser.add_argument("--context", action="append",
                        help="context name (repeat for compose/iso)")
    parser.add_argument("--module", help="module name")
    parser.add_argument("--ideal", help="ideal name")
    parser.add_argument("--max-dim", type=_non_negative_int, dest="max_dim",
                        help="catalog dimension bound, at least 0 (overrides workspace recipes)")
    parser.add_argument("--budget", type=_non_negative_int,
                        help="submodule and Ext enumeration budget, at least 0")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled searches (recorded in reports)")
    parser.add_argument("--strict-sampling", action="store_true",
                        help="treat sampled passes as failures")
    parser.add_argument("--out", help="also write the machine report to this path")
    parser.add_argument("--format", choices=("human", "machine"), default="human",
                        help="report style on stdout")
    return parser


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ws = parse_workspace(args.workspace)
        report, extra = _HANDLERS[args.command](ws, args)
    except ValueError as e:  # WorkspaceError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"error: internal invariant broken: {e}", file=sys.stderr)
        return 3
    passed = report.passed and not (args.strict_sampling and report.sampled)
    machine = _machine_report(args, report, passed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(machine)
    if args.format == "machine":
        sys.stdout.write(machine)
    else:
        print(_human_report(args, report, extra, passed))
    return 0 if passed else 1


# ----------------------------------------------------------------- dispatch


def _one_context(ws, args):
    names = args.context or []
    if len(names) != 1:
        raise WorkspaceError("exactly one --context name is required", "--context")
    return ws.context(names[0]), names[0]


def _two_contexts(ws, args):
    names = args.context or []
    if len(names) != 2:
        raise WorkspaceError("exactly two --context names are required", "--context")
    return [(ws.context(n), n) for n in names]


def _theory(ws, args):
    if not args.module or not args.ideal:
        raise WorkspaceError("--module and --ideal are both required", "--module")
    mod = ws.left_module(args.module)
    ideal = ws.ideal(args.ideal)
    if ideal.algebra != mod.algebra:
        raise WorkspaceError(
            f"ideal {args.ideal!r} and module {args.module!r} live over different algebras",
            "--ideal")
    return TorsionTheory.from_ideal(mod.algebra, ideal), mod


def _cmd_validate(ws, args):
    """parse_workspace raises on the first broken law, so every loaded
    object has passed its checks."""
    report = Report("workspace validation")
    for kind, objects, check in (("algebra", ws.algebras, "associativity and unit laws"),
                                 ("module", ws.modules, "module laws"),
                                 ("bimodule", ws.bimodules, "bimodule laws"),
                                 ("context", ws.contexts, "bimodule maps and compatibility"),
                                 ("grading", ws.gradings, "group table and degree lists")):
        for name in sorted(objects):
            report.record(f"{kind} {name}", check, True)
    return report, []


def _cmd_trace(ws, args):
    ctx, name = _one_context(ws, args)
    report = Report("trace ideals and stabilization")
    *_, notes = record_trace_ideals(report, f"context {name}", ctx)
    return report, list(notes)


def _cmd_strict(ws, args):
    ctx, name = _one_context(ws, args)
    ok = is_strict(ctx)
    report = Report("pairing surjectivity")
    report.record(f"context {name}", "both pairings surjective", ok)
    return report, [f"strict: {'true' if ok else 'false'}"]


def _cmd_torsion(ws, args):
    tt, mod = _theory(ws, args)
    t = torsion_submodule(tt, mod)
    free = is_torsion_free(tt, mod)
    report = Report("torsion theory of the ideal")
    stab = f"ideal stabilizes at exponent {tt.exponent} (dim {tt.stable_ideal.dim})"
    report.record(f"module {args.module}", "torsion submodule computed", True,
                  witness=t.dim, note=stab)
    return report, [stab, f"torsion submodule dim {t.dim}",
                    f"torsion-free: {'true' if free else 'false'}"]


def _cmd_localize(ws, args):
    tt, mod = _theory(ws, args)
    loc = localize(tt, mod)
    report = Report("localization at the ideal")
    report.record(f"module {args.module}", "localization closed, kernel torsion",
                  True, witness=loc.module.dim)
    return report, [f"localized dim {loc.module.dim}"]


def _cmd_closed(ws, args):
    tt, mod = _theory(ws, args)
    ok = is_closed(tt, mod)
    report = Report("closedness for the ideal")
    report.record(f"module {args.module}", "canonical map to the ideal hom invertible", ok)
    return report, [f"closed: {'true' if ok else 'false'}"]


def _built(builder, alg, max_dim: int, args):
    """builder (build_catalog or build_graded_catalog) within --budget, else
    the library's lattice budget, sampled past it; the machine report's
    inputs keep the flag as given."""
    budget = args.budget if args.budget is not None else DEFAULT_LATTICE_BUDGET
    return builder(alg, max_dim, budget=budget, allow_sampling=True, seed=args.seed)


def _recipe(ws, args, recipe_name, alg):
    """The workspace catalog recipe recipe_name when it is for alg and no
    --max-dim overrides it, else None."""
    rec = None if args.max_dim is not None else ws.catalogs.get(recipe_name)
    return rec if rec is not None and ws.algebras[rec.algebra_name] == alg else None


def _catalog_dim(ws, args, recipe_name, alg) -> int:
    """--max-dim, else recipe_name's max_dim when it is for alg, else _DEFAULT_CATALOG_DIM."""
    rec = _recipe(ws, args, recipe_name, alg)
    if rec is not None and rec.max_dim is not None:
        return rec.max_dim
    return args.max_dim if args.max_dim is not None else _DEFAULT_CATALOG_DIM


def _catalog_pair(ws, args, r_alg, s_alg):
    """catR and catS: a recipe's module list, else a catalog built to _catalog_dim."""
    def catalog(recipe_name, alg):
        rec = _recipe(ws, args, recipe_name, alg)
        if rec is not None and rec.module_names is not None:
            return user_catalog(alg, [ws.left_module(n) for n in rec.module_names])
        return _built(build_catalog, alg, _catalog_dim(ws, args, recipe_name, alg), args)

    return catalog("catR", r_alg), catalog("catS", s_alg)


def _cmd_equiv(ws, args):
    ctx, _ = _one_context(ws, args)
    cat_r, cat_s = _catalog_pair(ws, args, ctx.R, ctx.S)
    return verify_kato_muller(ctx, cat_r, cat_s), []


def _cmd_equiv_strict(ws, args):
    ctx, _ = _one_context(ws, args)
    if is_strict(ctx):
        cat_r, cat_s = _catalog_pair(ws, args, ctx.R, ctx.S)
    else:  # the failed precondition is the whole report: no catalog is read
        cat_r, cat_s = user_catalog(ctx.R, ()), user_catalog(ctx.S, ())
    return verify_strict_equivalence(ctx, cat_r, cat_s, seed=args.seed), []


def _cmd_equiv_proj(ws, args):
    ctx, _ = _one_context(ws, args)
    cat_r, cat_s = _catalog_pair(ws, args, ctx.R, ctx.S)
    return verify_projective_equivalence(ctx, cat_r, cat_s), []


def _cmd_compose(ws, args):
    pairs = _two_contexts(ws, args)
    (first, first_name), (second, second_name) = pairs
    comp = compose_contexts(first, second)
    report = Report("context composition")
    report.record(f"{first_name} o {second_name}", "pairings well-defined on tensors",
                  not validate_context(comp))
    extra = [f"composed M dim {comp.M.dim}, N dim {comp.N.dim}"]
    return report, extra


def _cmd_iso(ws, args):
    pairs = _two_contexts(ws, args)
    (first, first_name), (second, second_name) = pairs
    res = contexts_isomorphic(first, second, seed=args.seed)
    report = Report("context isomorphism search")
    witness = dict(zip(("u", "v"), res.map_)) if res.found else None
    note = "exhaustive search" if res.exhaustive else f"sampled search (seed {args.seed})"
    if not res.exhaustive:
        report.flag(f"sampled iso search (seed {args.seed})")
    report.record(f"{first_name} vs {second_name}", "bimodule isos matching both pairings",
                  res.found, witness=witness, note=note)
    return report, [f"isomorphic: {'true' if res.found else 'false'}"]


def _cmd_graded_equiv(ws, args):
    _, name = _one_context(ws, args)
    gctx = ws.grading_for_context(name).contexts[name]
    # a module-list recipe does not apply to a graded catalog
    cat_r = _built(build_graded_catalog, gctx.graded_r,
                   _catalog_dim(ws, args, "catR", gctx.graded_r.base), args)
    cat_s = _built(build_graded_catalog, gctx.graded_s,
                   _catalog_dim(ws, args, "catS", gctx.graded_s.base), args)
    return verify_graded_kato_muller(gctx, cat_r, cat_s), []


def _cmd_catalog(ws, args):
    if args.module:
        alg = ws.left_module(args.module).algebra
    elif len(ws.algebras) == 1:
        alg = next(iter(ws.algebras.values()))
    else:
        raise WorkspaceError("catalog needs --module to pick the algebra", "--module")
    # no recipe is read: the catalog of one algebra is --max-dim or the default
    cat = _built(build_catalog, alg, _catalog_dim(ws, args, None, alg), args)
    dims = [m.dim for m in cat]
    report = Report("module catalog")
    report.flag_sampled_catalogs(cat)
    report.record("catalog", "isomorphism classes enumerated", True,
                  witness=dims, note=cat.provenance)
    extra = [f"catalog: {len(cat)} modules",
             "dims: " + ", ".join(str(d) for d in dims),
             f"provenance: {cat.provenance}"]
    return report, extra


# command -> handler(ws, args) returning (report, human-only lines); --help order
_HANDLERS = {
    "validate": _cmd_validate,
    "trace": _cmd_trace,
    "strict": _cmd_strict,
    "torsion": _cmd_torsion,
    "localize": _cmd_localize,
    "closed": _cmd_closed,
    "equiv": _cmd_equiv,
    "equiv-strict": _cmd_equiv_strict,
    "equiv-proj": _cmd_equiv_proj,
    "compose": _cmd_compose,
    "iso": _cmd_iso,
    "graded-equiv": _cmd_graded_equiv,
    "catalog": _cmd_catalog,
}


# ----------------------------------------------------------------- reports


def _witness_json(w):
    if isinstance(w, Matrix):
        return matrix_to_json(w)
    if isinstance(w, dict):
        return {k: _witness_json(v) for k, v in sorted(w.items())}
    if isinstance(w, (list, tuple)):
        return [_witness_json(x) for x in w]
    return w


def _machine_report(args, report: Report, passed: bool) -> str:
    inputs = {"workspace": os.path.basename(args.workspace),
              "strict_sampling": bool(args.strict_sampling)}
    for key in ("context", "module", "ideal", "max_dim", "budget"):
        val = getattr(args, key)
        if val is not None:
            inputs[key] = val
    verdicts = []
    for v in report.verdicts:
        entry = {"subject": v.subject, "check": v.check, "pass": v.passed}
        if v.witness is not None:
            entry["witness"] = _witness_json(v.witness)
        if v.note:
            entry["note"] = v.note
        verdicts.append(entry)
    doc = {
        "command": args.command,
        "inputs": inputs,
        "seed": args.seed,
        "verdicts": verdicts,
        "summary": {
            "statement": report.statement,
            "passed": passed,
            "verdict_count": len(report.verdicts),
            "failure_count": len(report.failures()),
            "flags": list(report.flags),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _human_report(args, report: Report, extra, passed: bool) -> str:
    lines = [f"{args.command}: {report.statement}",
             f"workspace: {os.path.basename(args.workspace)}",
             f"seed: {args.seed}"]
    lines += extra
    for v in report.verdicts:
        mark = "pass" if v.passed else "FAIL"
        tail = f" ({v.note})" if v.note else ""
        lines.append(f"[{mark}] {v.subject}: {v.check}{tail}")
    for fl in report.flags:
        lines.append(f"flag: {fl}")
    outcome = "pass" if passed else "fail"
    lines.append(f"result: {outcome} ({len(report.verdicts)} verdicts, "
                 f"{len(report.failures())} failures)")
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
