"""Workspace parsing, validation errors with locations, round trips."""

import json
import os

import pytest

import moritakit.workspace as workspace_layer
from moritakit.context import is_strict, trace_ideals
from moritakit.exactlin import Field
from moritakit.workspace import (
    WorkspaceError,
    builtin_workspaces,
    parse_workspace,
    workspace_text,
    write_builtin_workspaces,
)

WORKSPACE_DIR = os.path.join(os.path.dirname(__file__), "..", "workspaces")


def write_ws(tmp_path, doc, name="ws.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


MINIMAL = {
    "field": {"kind": "gf", "p": 2},
    "algebras": {"K": {"dim": 1, "unit": [1], "mul": [[[1]]]}},
}


def test_minimal_workspace(tmp_path):
    ws = parse_workspace(write_ws(tmp_path, MINIMAL))
    assert ws.field == Field.gf(2)
    assert ws.algebras["K"].dim == 1


def test_rationals_field_with_fraction_strings(tmp_path):
    doc = {
        "field": {"kind": "rationals"},
        "algebras": {"K": {"dim": 1, "unit": ["2/2"], "mul": [[["1/1"]]]}},
    }
    ws = parse_workspace(write_ws(tmp_path, doc))
    assert ws.field == Field.rationals()
    assert ws.algebras["K"].unit == (1,)


def test_missing_field_declaration(tmp_path):
    with pytest.raises(WorkspaceError, match="field"):
        parse_workspace(write_ws(tmp_path, {"algebras": {}}))


def test_non_prime_field_order_located(tmp_path):
    doc = dict(MINIMAL, field={"kind": "gf", "p": 4})
    with pytest.raises(WorkspaceError, match=r"field\.p") as info:
        parse_workspace(write_ws(tmp_path, doc))
    assert info.value.location == "field.p"
    assert "not prime" in info.value.message


def test_syntax_error_carries_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "field": {\n')
    with pytest.raises(WorkspaceError, match="line 3"):
        parse_workspace(str(p))


def test_nonassociative_algebra_rejected(tmp_path):
    doc = {
        "field": {"kind": "gf", "p": 2},
        "algebras": {"bad": {
            "dim": 2,
            "unit": [1, 0],
            "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        }},
    }
    # x*x = 1 with unit laws broken: whatever fails first must carry the
    # algebras.bad location
    doc["algebras"]["bad"]["mul"][1][0] = [0, 0]
    with pytest.raises(WorkspaceError) as info:
        parse_workspace(write_ws(tmp_path, doc))
    assert info.value.location == "algebras.bad"


def test_dangling_module_reference(tmp_path):
    doc = dict(MINIMAL)
    doc = json.loads(json.dumps(MINIMAL))
    doc["modules"] = {"X": {"algebra": "nope", "dim": 1, "action": [[[1]]]}}
    with pytest.raises(WorkspaceError, match="nope") as info:
        parse_workspace(write_ws(tmp_path, doc))
    assert info.value.location == "modules.X.algebra"


def test_bad_scalar_location(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["algebras"]["K"]["unit"] = ["1/2"]
    with pytest.raises(WorkspaceError, match="unit"):
        parse_workspace(write_ws(tmp_path, doc))


def test_module_validation_failure_located(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    # action of the unit is zero, so the unit law fails
    doc["modules"] = {"X": {"algebra": "K", "dim": 1, "action": [[[0]]]}}
    with pytest.raises(WorkspaceError) as info:
        parse_workspace(write_ws(tmp_path, doc))
    assert info.value.location == "modules.X"


def test_ideal_stability_checked(tmp_path):
    doc = {
        "field": {"kind": "gf", "p": 2},
        "algebras": {"T2": builtin_workspaces()["t2_corner.json"]["algebras"]["T2"]},
        "ideals": {"bad": {"algebra": "T2", "basis": [[1, 0, 0]]}},
    }
    with pytest.raises(WorkspaceError, match="stable"):
        parse_workspace(write_ws(tmp_path, doc))


def test_grading_degrees_for_unknown_object(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["gradings"] = {"g": {"group": {"table": [[0]]}, "degrees": {"ghost": [0]}}}
    with pytest.raises(WorkspaceError, match="ghost"):
        parse_workspace(write_ws(tmp_path, doc))


def test_grading_wrong_length_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["gradings"] = {"g": {"group": {"table": [[0]]}, "degrees": {"K": [0, 0]}}}
    with pytest.raises(WorkspaceError, match="1 degree"):
        parse_workspace(write_ws(tmp_path, doc))


@pytest.mark.parametrize("table", [
    [[0, "a"], [1, 0]], [[0, 1.0], [1, 0]], [[False, True], [True, False]], [[0, 1], 1],
], ids=["string", "float", "bool", "row-not-a-list"])
def test_group_table_entries_are_json_integers(tmp_path, table):
    doc = builtin_workspaces()["t2_corner.json"]
    doc["gradings"]["c2"]["group"]["table"] = table
    with pytest.raises(WorkspaceError) as info:
        parse_workspace(write_ws(tmp_path, doc))
    assert (info.value.message, info.value.location) == (
        "multiplication table rows must be lists of integer element indices", "gradings.c2.group")


@pytest.mark.parametrize("path", ["algebras.K.dim", "modules.X.dim", "catalogs.c.max_dim"])
def test_boolean_is_not_a_count(tmp_path, path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["modules"] = {"X": {"algebra": "K", "dim": 1, "action": [[[1]]]}}
    doc["catalogs"] = {"c": {"algebra": "K", "max_dim": 1}}
    parse_workspace(write_ws(tmp_path, doc))
    section, name, key = path.split(".")
    doc[section][name][key] = True
    with pytest.raises(WorkspaceError) as info:
        parse_workspace(write_ws(tmp_path, doc))
    assert info.value.location == path


def test_catalog_recipe_requires_known_algebra(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["catalogs"] = {"c": {"algebra": "missing", "max_dim": 2}}
    with pytest.raises(WorkspaceError, match="missing"):
        parse_workspace(write_ws(tmp_path, doc))


# ------------------------------------------------------- shipped fixtures


def shipped(name):
    return os.path.join(WORKSPACE_DIR, name)


def test_shipped_files_match_generator():
    docs = builtin_workspaces()
    for fname, doc in docs.items():
        with open(shipped(fname), "r", encoding="utf-8") as fh:
            on_disk = fh.read()
        assert on_disk == workspace_text(doc), fname


def test_t2_fixture_contents():
    ws = parse_workspace(shipped("t2_corner.json"))
    ctx = ws.context("t2corner")
    i, j = trace_ideals(ctx)
    assert (i.dim, j.dim) == (2, 1)
    assert not is_strict(ctx)
    assert ws.gradings["c2"].group.order == 2
    assert ws.gradings["c2"].degrees["T2"] == (0, 1, 0)
    assert ws.catalogs["catR"].max_dim == 3


def test_m2_fixture_is_strict():
    ws = parse_workspace(shipped("m2_corner.json"))
    ctx = ws.context("m2corner")
    assert is_strict(ctx)
    i, _ = trace_ideals(ctx)
    assert i.dim == 4


def test_identity_fixture_round_trip(tmp_path):
    ws = parse_workspace(shipped("identity.json"))
    ctx = ws.context("identity")
    assert is_strict(ctx)
    # re-serialize through the generator and parse again
    out = write_builtin_workspaces(str(tmp_path))
    again = parse_workspace([p for p in out if p.endswith("identity.json")][0])
    assert again.context("identity").M.dim == ctx.M.dim


def test_grading_for_context_selection():
    ws = parse_workspace(shipped("t2_corner.json"))
    g = ws.grading_for_context("t2corner")
    assert g.degrees["M"] == (1, 0)
    with pytest.raises(WorkspaceError, match="no grading"):
        ws.grading_for_context("t2identity")


def _t2_with_degrees(tmp_path, **changes):
    # the shipped t2_corner document with some c2 degree lists replaced,
    # or removed where the value is None
    doc = builtin_workspaces()["t2_corner.json"]
    degrees = doc["gradings"]["c2"]["degrees"]
    for name, degs in changes.items():
        if degs is None:
            del degrees[name]
        else:
            degrees[name] = degs
    return write_ws(tmp_path, doc)


def test_module_degrees_need_a_graded_algebra(tmp_path):
    path = _t2_with_degrees(tmp_path, T2=None, M=None, N=None, S1=None, S2=None,
                            T2reg=[1, 1, 1])
    with pytest.raises(WorkspaceError, match="'T2' has no degrees") as info:
        parse_workspace(path)
    assert info.value.location == "gradings.c2.degrees.T2reg"


def test_bimodule_degrees_need_both_algebras_graded(tmp_path):
    path = _t2_with_degrees(tmp_path, S=None)
    with pytest.raises(WorkspaceError, match="'S' has no degrees") as info:
        parse_workspace(path)
    assert info.value.location == "gradings.c2.degrees.M"


def test_bimodule_degrees_checked_outside_a_graded_context(tmp_path):
    # Nid has no degrees, so no graded context covers Mid
    path = _t2_with_degrees(tmp_path, Mid=[1, 1, 1])
    with pytest.raises(WorkspaceError, match="left action breaks the grading") as info:
        parse_workspace(path)
    assert info.value.location == "gradings.c2.degrees.Mid"


def test_graded_modules_are_checked_over_the_algebras_they_name(tmp_path):
    # K and L are equal, and only L has degrees: the module and the
    # bimodule declared over L are graded over L, never over K
    one = {"dim": 1, "unit": [1], "mul": [[[1]]]}
    doc = {
        "field": {"kind": "gf", "p": 2},
        "algebras": {"K": one, "L": one},
        "modules": {
            "X": {"algebra": "L", "dim": 1, "action": [[[1]]]},
            "B": {"algebra": "L", "dim": 1, "action": [[[1]]],
                  "right_algebra": "L", "right_action": [[[1]]]},
        },
        "gradings": {"g": {"group": {"table": [[0, 1], [1, 0]]},
                           "degrees": {"L": [0], "X": [1], "B": [0]}}},
    }
    ws = parse_workspace(write_ws(tmp_path, doc))
    assert ws.module_algebras == {"B": ("L", "L"), "X": ("L",)}
    assert ws.gradings["g"].degrees == {"B": (0,), "L": (0,), "X": (1,)}


# ---------------------------------------------- located errors, per site


def _rejected(name):
    def make(*args):
        raise ValueError(f"rejected by {name}")
    return make


def _edit(path, value):
    # set one entry of the shipped t2_corner document, by a dotted path
    # whose integer parts index lists
    def apply(doc):
        *head, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        for key in head:
            doc = doc[key]
        doc[last] = value
    return apply


# One malformed t2_corner document per site where the loader turns a
# library error into a located one, or resolves a name.  The Algebra,
# LeftModule and Bimodule constructors only raise on shapes that the
# loader has already checked, so no document reaches them: those rows
# swap the constructor for one that raises.
LOCATED_SITES = [
    ("field.p", 4, None, "field order 4 is not prime", "field.p"),
    ("field.kind", "gf3", None, "unknown field kind 'gf3'", "field.kind"),
    ("algebras.S.mul", [[[0]]], None, "left unit law fails at basis 0", "algebras.S"),
    (None, None, "Algebra", "rejected by Algebra", "algebras.S"),
    ("modules.S1.algebra", "nope", None, "unknown algebra 'nope'", "modules.S1.algebra"),
    ("modules.M.right_algebra", "nope", None, "unknown algebra 'nope'", "modules.M.right_algebra"),
    ("modules.M.right_algebra", ["S"], None, "unknown algebra ['S']", "modules.M.right_algebra"),
    (None, None, "Bimodule", "rejected by Bimodule", "modules.M"),
    (None, None, "LeftModule", "rejected by LeftModule", "modules.S1"),
    ("modules.S1.action.0", [[0]], None, "unit does not act as the identity", "modules.S1"),
    ("modules.M.right_action.0", [[0, 0], [0, 0]], None,
     "right unit does not act as the identity", "modules.M"),
    ("ideals.I.algebra", "nope", None, "unknown algebra 'nope'", "ideals.I.algebra"),
    ("ideals.I.basis", [[1, 0, 0]], None,
     "not right-stable: basis vector * e_1 escapes the span", "ideals.I"),
    ("contexts.t2corner.R", "nope", None, "unknown algebra 'nope'", "contexts.t2corner.R"),
    ("contexts.t2corner.S", "nope", None, "unknown algebra 'nope'", "contexts.t2corner.S"),
    ("contexts.t2corner.M", "nope", None, "unknown bimodule 'nope'", "contexts.t2corner.M"),
    ("contexts.t2corner.N", "nope", None, "unknown bimodule 'nope'", "contexts.t2corner.N"),
    ("contexts.t2corner.psi", [[1, 0]], None,
     "psi is not well-defined on the tensor quotient", "contexts.t2corner"),
    ("contexts.t2corner.phi", [[0, 0], [0, 0], [0, 0]], None,
     "phi/psi compatibility in M fails at (0, 0, 1)", "contexts.t2corner"),
    ("gradings.c2.degrees.S", [1], None,
     "unit is not concentrated in the identity degree", "gradings.c2.degrees.S"),
    ("gradings.c2.degrees.N", [1], None,
     "context 't2corner': phi: pairing of degrees breaks the grading at (0, 0)", "gradings.c2.degrees"),
    ("catalogs.catR.algebra", "nope", None, "unknown algebra 'nope'", "catalogs.catR.algebra"),
    ("catalogs.catR.algebra", 3, None, "unknown algebra 3", "catalogs.catR.algebra"),
]


@pytest.mark.parametrize("path, value, constructor, message, location", LOCATED_SITES,
                         ids=[path or f"{constructor}()" for path, _, constructor, _, _ in LOCATED_SITES])
def test_each_loader_site_names_its_error(tmp_path, monkeypatch, path, value, constructor,
                                          message, location):
    doc = builtin_workspaces()["t2_corner.json"]
    if path is not None:
        _edit(path, value)(doc)
    if constructor is not None:
        monkeypatch.setattr(workspace_layer, constructor, _rejected(constructor))
    with pytest.raises(WorkspaceError) as info:
        parse_workspace(write_ws(tmp_path, doc))
    assert (info.value.message, info.value.location) == (message, location)


@pytest.mark.parametrize("lookup, message, location", [
    ("ideal", "unknown ideal 'nope'", "ideals"),
    ("context", "unknown context 'nope'", "contexts"),
])
def test_workspace_lookups_name_their_error(lookup, message, location):
    ws = parse_workspace(shipped("t2_corner.json"))
    with pytest.raises(WorkspaceError) as info:
        getattr(ws, lookup)("nope")
    assert (info.value.message, info.value.location) == (message, location)


@pytest.mark.parametrize("degree", [[0], [1]])
def test_a_module_may_not_share_an_algebra_name(tmp_path, degree):
    # degrees are keyed by name, so a module named like an algebra would
    # read the algebra's degree list or lend it its own
    doc = builtin_workspaces()["t2_corner.json"]
    doc["modules"]["S"] = dict(doc["modules"]["S1"])
    doc["gradings"]["c2"]["degrees"]["S"] = degree
    with pytest.raises(WorkspaceError) as info:
        parse_workspace(write_ws(tmp_path, doc))
    assert info.value.location == "modules.S"
