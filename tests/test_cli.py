"""Command dispatch, exit codes, and report emission."""

import hashlib
import json
import os

import pytest

import moritakit.cli as cli
from moritakit.cli import main
from moritakit.exactlin import Basis
from moritakit.workspace import builtin_workspaces

WORKSPACE_DIR = os.path.join(os.path.dirname(__file__), "..", "workspaces")
T2 = os.path.join(WORKSPACE_DIR, "t2_corner.json")
M2 = os.path.join(WORKSPACE_DIR, "m2_corner.json")
IDENTITY = os.path.join(WORKSPACE_DIR, "identity.json")
REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes_on_fixture(capsys):
    code, out, _ = run(capsys, "validate", T2)
    assert code == 0
    assert "[pass] algebra T2" in out
    assert "result: pass" in out


def test_validate_checks_each_law_once(capsys, monkeypatch):
    # loading checks every algebra, module, bimodule and context law, and
    # validate reports those checks instead of running them again
    import moritakit.cli as cli
    import moritakit.workspace as workspace

    ws = workspace.parse_workspace(T2)
    objects = sum(len(d) for d in (ws.algebras, ws.modules, ws.bimodules, ws.contexts))
    checked = []
    for name in ("validate_algebra", "validate_module", "validate_context"):
        def counted(obj, check=getattr(workspace, name)):
            checked.append(obj)
            return check(obj)

        monkeypatch.setattr(workspace, name, counted)
        monkeypatch.setattr(cli, name, counted, raising=False)
    code, out, _ = run(capsys, "validate", T2)
    assert code == 0
    assert len(checked) == objects
    assert out.count("[pass]") == objects + len(ws.gradings)


def test_strict_true_on_identity(capsys):
    code, out, _ = run(capsys, "strict", IDENTITY, "--context", "identity")
    assert code == 0
    assert "strict: true" in out


def test_strict_false_on_corner(capsys):
    code, out, _ = run(capsys, "strict", T2, "--context", "t2corner")
    assert code == 1
    assert "strict: false" in out


def test_trace_reports_ideal_shapes(capsys):
    code, out, _ = run(capsys, "trace", T2, "--context", "t2corner")
    assert code == 0
    assert "I = 2-dim, idempotent (exponent 1)" in out
    assert "J = S (dim 1)" in out


def test_torsion_command(capsys):
    code, out, _ = run(capsys, "torsion", T2, "--module", "T2reg", "--ideal", "I")
    assert code == 0
    assert "torsion submodule dim 2" in out
    assert "torsion-free: false" in out


def test_localize_regular(capsys):
    code, out, _ = run(capsys, "localize", T2, "--module", "T2reg", "--ideal", "I")
    assert code == 0
    assert "localized dim 1" in out


def test_closed_yes_and_no(capsys):
    code, out, _ = run(capsys, "closed", T2, "--module", "S2", "--ideal", "I")
    assert code == 0 and "closed: true" in out
    code, out, _ = run(capsys, "closed", T2, "--module", "S1", "--ideal", "I")
    assert code == 1 and "closed: false" in out


def test_equiv_uses_workspace_recipes(capsys):
    code, out, _ = run(capsys, "equiv", T2, "--context", "t2corner")
    assert code == 0
    assert "I = 2-dim, idempotent (exponent 1)" in out
    assert "result: pass" in out


def test_equiv_strict_on_m2(capsys):
    code, out, _ = run(capsys, "equiv-strict", M2, "--context", "m2corner")
    assert code == 0
    assert "eta invertible" in out


@pytest.mark.parametrize("path, context, builds, exit_code", [
    pytest.param(T2, "t2corner", 0, 1, id="t2corner"),
    pytest.param(M2, "m2corner", 2, 0, id="m2corner"),
])
def test_equiv_strict_builds_catalogs_only_for_onto_pairings(capsys, monkeypatch, path, context,
                                                             builds, exit_code):
    # t2corner's pairing into R is not onto, so its report is the failed
    # precondition alone and no catalog is read
    calls = []
    real = cli.build_catalog

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_catalog", counting)
    code, _, _ = run(capsys, "equiv-strict", path, "--context", context)
    assert (code, len(calls)) == (exit_code, builds)


def test_equiv_proj_on_t2(capsys):
    code, out, _ = run(capsys, "equiv-proj", T2, "--context", "t2corner", "--max-dim", "3")
    assert code == 0
    assert "projective class size" in out


def test_graded_equiv_autoselects_grading(capsys):
    code, out, _ = run(capsys, "graded-equiv", T2, "--context", "t2corner")
    assert code == 0
    assert "suspension" in out


def test_graded_equiv_without_grading_is_input_error(capsys):
    code, _, err = run(capsys, "graded-equiv", IDENTITY, "--context", "identity")
    assert code == 2
    assert "grading" in err


def test_graded_equiv_with_two_gradings_covering_the_context_is_input_error(capsys, tmp_path):
    with open(T2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["gradings"]["twin"] = doc["gradings"]["c2"]
    path = tmp_path / "two_gradings.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "graded-equiv", str(path), "--context", "t2corner")
    assert code == 2
    assert err == "error: gradings: several gradings cover context 't2corner'\n"


def test_compose_composable_pair(capsys):
    code, out, _ = run(capsys, "compose", T2, "--context", "t2identity",
                       "--context", "t2corner")
    assert code == 0
    assert "composed M dim 2, N dim 1" in out


def test_compose_rejects_mismatched_pair(capsys):
    code, _, err = run(capsys, "compose", T2, "--context", "t2corner",
                       "--context", "t2corner")
    assert code == 2
    assert "middle" in err


def test_iso_reflexive(capsys):
    code, out, _ = run(capsys, "iso", T2, "--context", "t2corner", "--context", "t2corner")
    assert code == 0
    assert "isomorphic: true" in out


def test_iso_over_the_rationals_finds_the_identity_pair_as_a_proof(capsys, tmp_path):
    # over Q the walk over u would sample, so u = I is offered first; its
    # hit proves isomorphism, so nothing is flagged and --strict-sampling
    # passes with the same verdicts
    doc = builtin_workspaces()["identity.json"]
    doc["field"] = {"kind": "rationals"}
    path = tmp_path / "identity_q.json"
    path.write_text(json.dumps(doc))
    argv = ["iso", str(path), "--context", "identity", "--context", "identity", "--format", "machine"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    relaxed = json.loads(out)
    assert relaxed["summary"]["flags"] == []
    [verdict] = relaxed["verdicts"]
    assert verdict["pass"] is True
    assert verdict["note"] == "exhaustive search"
    eye = [["1" if r == c else "0" for c in range(3)] for r in range(3)]
    assert verdict["witness"] == {"u": eye, "v": eye}
    code, out, _ = run(capsys, *argv, "--strict-sampling")
    assert code == 0
    assert json.loads(out)["verdicts"] == relaxed["verdicts"]


def test_iso_over_the_rationals_samples_when_the_identity_is_no_map(capsys, tmp_path):
    # the copy has M in the basis P: its actions are P A P^-1 and its
    # pairings phi (P^-1 (x) I) and psi (I (x) P^-1), so the isos u are the
    # nonzero multiples of P.  u = I is no map, and over Q the walk samples
    doc = builtin_workspaces()["t2_corner.json"]
    doc["field"] = {"kind": "rationals"}

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    p, p_inv = [[1, 1], [0, 1]], [[1, -1], [0, 1]]
    m = doc["modules"]["M"]
    doc["modules"]["Mp"] = dict(m, action=[mul(mul(p, a), p_inv) for a in m["action"]],
                                right_action=[mul(mul(p, a), p_inv) for a in m["right_action"]])
    ctx = doc["contexts"]["t2corner"]  # N is 1-dim, so P^-1 (x) I = I (x) P^-1 = P^-1
    doc["contexts"]["t2p"] = dict(ctx, M="Mp", phi=mul(ctx["phi"], p_inv), psi=mul(ctx["psi"], p_inv))
    path = tmp_path / "t2_corner_q.json"
    path.write_text(json.dumps(doc))
    argv = ["iso", str(path), "--context", "t2corner", "--context", "t2p", "--format", "machine"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["flags"] == ["sampled iso search (seed 0)"]
    [verdict] = report["verdicts"]
    assert (verdict["pass"], verdict["note"]) == (True, "sampled search (seed 0)")
    (a, b), (c, d) = verdict["witness"]["u"]
    assert a == b == d != "0" and c == "0"
    code, _, _ = run(capsys, *argv, "--strict-sampling")
    assert code == 1


@pytest.mark.parametrize("argv, text", [
    (["equiv", T2, "--context", "t2corner", "--context", "t2corner"], "exactly one --context"),
    (["iso", T2, "--context", "t2corner"], "exactly two --context"),
    (["torsion", T2, "--module", "T2reg", "--ideal", "J"], "live over different algebras"),
    (["catalog", T2], "catalog needs --module"),
    (["catalog", T2, "--module", "nope"], "modules: unknown module 'nope'"),
], ids=["equiv-two-contexts", "iso-one-context", "torsion-foreign-ideal", "catalog-no-module",
        "catalog-unknown-module"])
def test_mismatched_arguments_are_input_errors(capsys, argv, text):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert text in err


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog", T2, "--module", "T2reg", "--max-dim", "3")
    assert code == 0
    assert "catalog: 13 modules" in out
    assert "provenance: exhaustive-up-to-dim(3)" in out


def test_catalog_of_a_bimodule_is_over_its_left_algebra(capsys):
    code, out, _ = run(capsys, "catalog", T2, "--module", "M", "--max-dim", "2")
    assert code == 0
    assert "catalog: 7 modules" in out
    assert run(capsys, "catalog", T2, "--module", "T2reg", "--max-dim", "2") == (code, out, "")


def test_unknown_context_is_input_error(capsys):
    code, _, err = run(capsys, "strict", T2, "--context", "ghost")
    assert code == 2
    assert "ghost" in err


def test_missing_required_flag_is_input_error(capsys):
    code, _, err = run(capsys, "closed", T2, "--module", "S1")
    assert code == 2
    assert "--module and --ideal" in err


@pytest.mark.parametrize("argv", [
    ("equiv", T2, "--context", "t2corner", "--max-dim", "-1"),
    ("catalog", IDENTITY, "--max-dim", "-3"),
], ids=["equiv", "catalog"])
def test_negative_max_dim_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert "--max-dim" in capsys.readouterr().err


def test_negative_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["catalog", IDENTITY, "--budget", "-1"])
    assert info.value.code == 2
    assert "argument --budget: must be at least 0" in capsys.readouterr().err


def test_broken_invariant_exits_three(capsys, monkeypatch):
    # no vector lies in any span, so the first coordinate read breaks
    monkeypatch.setattr(Basis, "coords", lambda self, v: None)
    code, out, err = run(capsys, "closed", T2, "--module", "T2reg", "--ideal", "I")
    assert code == 3
    assert out == ""
    assert err == "error: internal invariant broken: stabilized ideal is not two-sided stable\n"


def test_validate_rejects_bimodule_degrees_that_break_the_grading(capsys, tmp_path):
    with open(T2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["gradings"]["c2"]["degrees"]["M"] = [0, 0]
    p = tmp_path / "bad_grading.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "gradings.c2.degrees" in err
    assert "'t2corner'" in err


def test_zero_max_dim_is_valid(capsys):
    code, out, _ = run(capsys, "catalog", IDENTITY, "--max-dim", "0")
    assert code == 0
    assert "provenance: exhaustive-up-to-dim(0)" in out


def test_unparsable_workspace_is_input_error(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "invalid JSON" in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", T2])
    assert info.value.code == 2


def test_machine_format_is_json_with_contract_fields(capsys):
    code, out, _ = run(capsys, "equiv", T2, "--context", "t2corner",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "equiv"
    assert doc["seed"] == 0
    assert doc["inputs"]["workspace"] == "t2_corner.json"
    assert all({"subject", "check", "pass"} <= set(v) for v in doc["verdicts"])
    assert doc["summary"]["passed"] is True


def test_machine_reports_byte_identical(capsys):
    _, out1, _ = run(capsys, "equiv", T2, "--context", "t2corner",
                     "--format", "machine", "--seed", "7")
    _, out2, _ = run(capsys, "equiv", T2, "--context", "t2corner",
                     "--format", "machine", "--seed", "7")
    assert out1 == out2


def test_tight_budget_falls_back_to_sampling(capsys):
    code, out, _ = run(capsys, "equiv", T2, "--context", "t2corner",
                       "--max-dim", "4", "--budget", "5", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert "sampled catalog: sampled(seed=0)" in doc["summary"]["flags"]


def test_strict_sampling_fails_sampled_run(capsys):
    code, out, _ = run(capsys, "equiv", T2, "--context", "t2corner",
                       "--max-dim", "4", "--budget", "5", "--strict-sampling")
    assert code == 1
    assert "flag: sampled catalog: sampled(seed=0)" in out
    assert "result: fail" in out


def test_catalog_strict_sampling_fails_sampled_catalog(capsys):
    code, out, _ = run(capsys, "catalog", T2, "--module", "T2reg", "--max-dim", "2",
                       "--budget", "4", "--strict-sampling", "--format", "machine")
    assert code == 1
    summary = json.loads(out)["summary"]
    assert "sampled catalog: sampled(seed=0)" in summary["flags"]
    assert summary["passed"] is False


def test_strict_sampling_is_applied_once_by_the_cli(capsys, tmp_path):
    # the library's report passes on its verdicts; --strict-sampling fails a
    # sampled run in the exit code, summary.passed and the --out file alike
    target = tmp_path / "strict.json"
    argv = ["equiv", T2, "--context", "t2corner", "--max-dim", "4", "--budget", "5",
            "--format", "machine"]
    code, out, _ = run(capsys, *argv, "--strict-sampling", "--out", str(target))
    assert code == 1
    assert target.read_text() == out
    doc = json.loads(out)
    assert doc["summary"]["passed"] is False
    assert doc["verdicts"] and all(v["pass"] for v in doc["verdicts"])
    relaxed_code, relaxed_out, _ = run(capsys, *argv)
    assert relaxed_code == 0
    relaxed = json.loads(relaxed_out)
    assert relaxed["summary"]["passed"] is True
    assert relaxed["verdicts"] == doc["verdicts"]


def test_pinned_machine_reports_unchanged(capsys):
    # the benchmark pins the exit code and the sha256 of each report at seed 0
    with open(REFERENCE, encoding="utf-8") as fh:
        commands = json.load(fh)["cli"]["commands"]
    mismatches = []
    for entry in commands:
        argv = list(entry["argv"])
        argv[1] = os.path.join(WORKSPACE_DIR, argv[1])
        code, out, _ = run(capsys, *argv, "--format", "machine", "--seed", "0")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (entry["exit"], entry["sha256"]):
            mismatches.append(" ".join(entry["argv"]))
    assert mismatches == []


def test_whole_algebra_closed_and_localize_reports_pinned(capsys):
    # m2_corner's ideal I is all of M2; none of the benchmark's pinned
    # commands localizes there, where localize builds the closedness map
    pins = {"closed": "cb032c6ec07cd6ee5380f85ba54a471da7c5f09714f3ea63c5ccffaf82c5bb1c",
            "localize": "954fa5db822b1da73cd7dbee941fc666aad24e8d8bd93bc0728d19f0c8c4f33b"}
    for command, digest in pins.items():
        code, out, _ = run(capsys, command, M2, "--module", "M2reg", "--ideal", "I",
                           "--format", "machine", "--seed", "0")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_out_flag_writes_machine_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "localize", T2, "--module", "T2reg",
                       "--ideal", "I", "--out", str(target))
    assert code == 0
    assert "localized dim 1" in out
    doc = json.loads(target.read_text())
    assert doc["command"] == "localize"
    assert doc["verdicts"][0]["witness"] == 1


def test_iso_witness_serialized(capsys):
    code, out, _ = run(capsys, "iso", T2, "--context", "t2corner",
                       "--context", "t2corner", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    wit = doc["verdicts"][0]["witness"]
    assert set(wit) == {"u", "v"}
    assert wit["u"] == [[1, 0], [0, 1]] or len(wit["u"]) == 2


def test_seed_recorded_in_report(capsys):
    _, out, _ = run(capsys, "iso", T2, "--context", "t2corner",
                    "--context", "t2corner", "--format", "machine", "--seed", "5")
    assert json.loads(out)["seed"] == 5


def _t2_with_catalog_recipe(tmp_path, modules):
    with open(T2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["catalogs"]["catR"] = {"algebra": "T2", "modules": modules}
    p = tmp_path / "recipe.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_catalog_recipe_with_listed_modules(capsys, tmp_path):
    path = _t2_with_catalog_recipe(tmp_path, ["S1", "S2", "T2reg"])
    code, out, _ = run(capsys, "equiv", path, "--context", "t2corner", "--format", "machine")
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["verdict_count"] == 16
    assert summary["flags"] == ["sampled catalog: user-supplied"]


def test_catalog_recipe_with_no_modules_is_an_empty_catalog(capsys, tmp_path):
    # an empty list is still the recipe's catalog, not a cue to build one
    path = _t2_with_catalog_recipe(tmp_path, [])
    code, out, _ = run(capsys, "equiv", path, "--context", "t2corner", "--format", "machine")
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["verdict_count"] == 10
    assert summary["flags"] == ["sampled catalog: user-supplied"]


def test_graded_equiv_reads_the_max_dim_recipes(capsys, tmp_path):
    # t2_corner's catR and catS recipes both bound at 3, and --max-dim
    # overrides them; a module-list recipe does not apply to a graded
    # catalog, so catR falls back to the default bound 3 next to catS's 1
    path = _t2_with_catalog_recipe(tmp_path, ["S1", "S2", "T2reg"])
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["catalogs"]["catS"]["max_dim"] = 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for argv, count in (([T2], 167), ([T2, "--max-dim", "2"], 71), ([path], 146)):
        code, out, _ = run(capsys, "graded-equiv", *argv, "--context", "t2corner",
                           "--format", "machine")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert (summary["verdict_count"], summary["flags"]) == (count, [])


def test_a_recipe_applies_only_to_its_algebra_and_max_dim_overrides_it(capsys, tmp_path):
    # t2identity's S is T2, so catS (for the corner S, bound 1 here) does not
    # bound it: the default 3 does; and --max-dim replaces catR's module list
    with open(T2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["catalogs"]["catS"]["max_dim"] = 1
    bound_one = tmp_path / "cats_one.json"
    bound_one.write_text(json.dumps(doc))
    listed = _t2_with_catalog_recipe(tmp_path, ["S1", "S2", "T2reg"])
    for argv, count in (([str(bound_one), "--context", "t2identity"], 54),
                        ([str(bound_one), "--context", "t2identity", "--max-dim", "3"], 54),
                        ([str(bound_one), "--context", "t2identity", "--max-dim", "1"], 14),
                        ([listed, "--context", "t2corner", "--max-dim", "2"], 22)):
        code, out, _ = run(capsys, "equiv", *argv, "--format", "machine")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert (summary["verdict_count"], summary["flags"]) == (count, [])


def test_an_unused_twin_of_the_corner_algebra_changes_no_report(capsys, tmp_path):
    # A equals S and nothing names it: the grading checks each module over
    # the algebras it names, not over the first algebra equal to one.  The
    # copy keeps the shipped basename, which the reports record
    with open(T2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["algebras"]["A"] = dict(doc["algebras"]["S"])
    twin = tmp_path / "t2_corner.json"
    twin.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(twin))
    assert (code, err) == (0, "")
    for command in ("equiv", "equiv-proj", "graded-equiv"):
        shipped, copied = (run(capsys, command, path, "--context", "t2corner",
                               "--format", "machine") for path in (T2, str(twin)))
        assert shipped[0] == 0
        assert copied == shipped


def test_catalog_recipe_with_unknown_module_is_input_error(capsys, tmp_path):
    path = _t2_with_catalog_recipe(tmp_path, ["S1", "ghost"])
    code, out, err = run(capsys, "equiv", path, "--context", "t2corner")
    assert code == 2
    assert out == ""
    assert "catalogs.catR.modules: unknown module 'ghost'" in err


def test_equiv_proj_budget_zero_samples_and_flags(capsys):
    code, out, _ = run(capsys, "equiv-proj", T2, "--context", "t2corner", "--budget", "0",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["budget"] == 0
    # the class test is one tensor product and never samples: only the
    # catalogs, walked with budget 0, are flagged
    assert doc["summary"]["flags"] == ["sampled catalog: sampled(seed=0)"]
    code, _, _ = run(capsys, "equiv-proj", T2, "--context", "t2corner", "--budget", "0",
                     "--strict-sampling")
    assert code == 1


def test_equiv_proj_passes_on_a_catalog_without_p2(capsys):
    # the dim <= 1 catalog lacks P2, the extension that keeps S2 out of
    # the class; the Ext^1 criterion does not need it
    code, out, _ = run(capsys, "equiv-proj", T2, "--context", "t2corner", "--max-dim", "1",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert "budget" not in doc["inputs"]
    assert doc["summary"]["flags"] == []
    assert doc["verdicts"][0]["note"] == "1 of 3 qualify"


def test_equiv_proj_over_the_rationals_flags_only_the_catalog(capsys, tmp_path):
    # the class test is one tensor product, exact over Q: R/I is not
    # walked, so only the Q catalogs, which always sample, are flagged
    doc = builtin_workspaces()["t2_corner.json"]
    doc["field"] = {"kind": "rationals"}
    path = tmp_path / "t2_corner_q.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "equiv-proj", str(path), "--context", "t2corner",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["verdicts"]) == 14 and doc["summary"]["passed"] is True
    assert [v["note"] for v in doc["verdicts"][:2]] == ["2 of 13 qualify", "4 of 4 qualify"]
    assert doc["summary"]["flags"] == ["sampled catalog: sampled(seed=0)"]


def test_unknown_command_names_the_choices(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", T2, "--context", "t2corner"])
    assert info.value.code == 2
    assert "argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err


COMMANDS = ("validate", "trace", "strict", "torsion", "localize", "closed", "equiv",
            "equiv-strict", "equiv-proj", "compose", "iso", "graded-equiv", "catalog")


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    listed = capsys.readouterr().out.split("one of:")[1].split("workspace")[0]
    assert [name.strip() for name in listed.split(",")] == list(COMMANDS)


@pytest.mark.parametrize("argv, text", [
    (("equiv", T2, "--context", "t2corner", "--max-dim", "-1"),
     "argument --max-dim: must be at least 0, got -1"),
    (("catalog", IDENTITY, "--max-dim", "two"), "argument --max-dim: expected an integer, got 'two'"),
    (("catalog", IDENTITY, "--budget", "-1"), "argument --budget: must be at least 0, got -1"),
    (("catalog", IDENTITY, "--budget", "1.5"), "argument --budget: expected an integer, got '1.5'"),
], ids=["max-dim-negative", "max-dim-text", "budget-negative", "budget-fraction"])
def test_bound_usage_errors_keep_their_text(capsys, argv, text):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: moritakit")
    assert err.rstrip().endswith(text)


def test_main_twice_in_one_process_gives_identical_reports(capsys):
    # nothing is cached between calls, so a second run in the same process
    # repeats the first byte for byte
    with open(REFERENCE, encoding="utf-8") as fh:
        commands = json.load(fh)["cli"]["commands"]
    for entry in commands:
        argv = list(entry["argv"])
        argv[1] = os.path.join(WORKSPACE_DIR, argv[1])
        first = run(capsys, *argv, "--format", "machine", "--seed", "3")
        assert run(capsys, *argv, "--format", "machine", "--seed", "3") == first
        assert first[0] == entry["exit"]
