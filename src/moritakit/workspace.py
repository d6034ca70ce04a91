"""Workspace files: one JSON document declaring a field plus named
algebras, modules, bimodules, ideals, contexts, gradings, and catalog
recipes.  Parsing validates every object, so a loaded workspace only
contains structures that satisfy their invariants; every error names the
field path (and the line for syntax errors) where it was found.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from .algebra import Algebra, Ideal, validate_algebra
from .context import MoritaContext, raw_pairing, reverse_context, validate_context
from .exactlin import Basis, Field, Matrix
from .graded import FiniteGroup, GradedAlgebra, GradedContext, GradedModule, check_bimodule_degrees
from .modules import Bimodule, LeftModule, validate_module


class WorkspaceError(ValueError):
    """A parse or validation failure, annotated with its location."""

    def __init__(self, message: str, location: str):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class Grading:
    """A group together with degree lists for named workspace objects, and
    the graded algebras and contexts those degrees were checked on."""

    __slots__ = ("group", "degrees", "graded_algebras", "contexts")

    def __init__(self, group: FiniteGroup, degrees: Dict[str, tuple],
                 graded_algebras: Dict[str, GradedAlgebra],
                 contexts: Dict[str, GradedContext]):
        self.group = group
        self.degrees = degrees
        self.graded_algebras = graded_algebras
        self.contexts = contexts


class CatalogRecipe:
    __slots__ = ("algebra_name", "max_dim", "module_names")

    def __init__(self, algebra_name: str, max_dim: Optional[int], module_names: Optional[tuple]):
        self.algebra_name = algebra_name
        self.max_dim = max_dim
        self.module_names = module_names


class Workspace:
    def __init__(self, field: Field):
        self.field = field
        self.algebras: Dict[str, Algebra] = {}
        self.modules: Dict[str, LeftModule] = {}
        self.bimodules: Dict[str, Bimodule] = {}
        self.ideals: Dict[str, Ideal] = {}
        self.contexts: Dict[str, MoritaContext] = {}
        self.context_names: Dict[str, tuple] = {}
        self.gradings: Dict[str, Grading] = {}
        self.catalogs: Dict[str, CatalogRecipe] = {}

    def left_module(self, name: str) -> LeftModule:
        if name in self.modules:
            return self.modules[name]
        if name in self.bimodules:
            return self.bimodules[name].left_module()
        raise WorkspaceError(f"unknown module {name!r}", "modules")

    def ideal(self, name: str) -> Ideal:
        return _named(self.ideals, "ideal", name, "ideals")

    def context(self, name: str) -> MoritaContext:
        return _named(self.contexts, "context", name, "contexts")

    def grading_for_context(self, context_name: str) -> Grading:
        """The unique grading covering all four objects of the context."""
        hits = [g for g in self.gradings.values() if context_name in g.contexts]
        if not hits:
            raise WorkspaceError(
                f"no grading covers context {context_name!r}", "gradings")
        if len(hits) > 1:
            raise WorkspaceError(
                f"several gradings cover context {context_name!r}", "gradings")
        return hits[0]


def _expect(cond: bool, message: str, location: str) -> None:
    if not cond:
        raise WorkspaceError(message, location)


def _located(location: str, make, *args):
    """make(*args), with a ValueError it raises located at location."""
    try:
        return make(*args)
    except ValueError as e:
        raise WorkspaceError(str(e), location) from None


def _lawful(obj, problems: list, location: str):
    """obj, unless a validator reported problems: then the first, located."""
    if problems:
        raise WorkspaceError(problems[0], location)
    return obj


def _named(table: dict, kind: str, name, location: str):
    """table[name], or the located error that calls name (any JSON value) unknown."""
    try:
        return table[name]
    except (KeyError, TypeError):
        raise WorkspaceError(f"unknown {kind} {name!r}", location) from None


def _non_negative_int(raw, message: str, location: str) -> int:
    # bool is an int subclass, but true is not a dimension
    _expect(isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0, message, location)
    return raw


def _vector(field: Field, raw, length: int, location: str) -> tuple:
    _expect(isinstance(raw, list), "expected a list of scalars", location)
    _expect(len(raw) == length, f"expected {length} entries, got {len(raw)}", location)
    out = []
    for i, x in enumerate(raw):
        try:
            out.append(field.parse(x))
        except (ValueError, ZeroDivisionError) as e:
            raise WorkspaceError(str(e), f"{location}[{i}]") from None
    return tuple(out)


def _matrix(field: Field, raw, rows: int, cols: int, location: str) -> Matrix:
    _expect(isinstance(raw, list), "expected a list of rows", location)
    _expect(len(raw) == rows, f"expected {rows} rows, got {len(raw)}", location)
    ent = [_vector(field, r, cols, f"{location}[{i}]") for i, r in enumerate(raw)]
    return Matrix(field, ent, cols=cols)


def _parse_field(obj, location: str) -> Field:
    _expect(isinstance(obj, dict), "field declaration must be an object", location)
    kind = obj.get("kind")
    if kind == "gf":
        p = obj.get("p")
        _expect(isinstance(p, int) and not isinstance(p, bool) and p >= 2,
                "gf field needs a prime p >= 2", f"{location}.p")
        return _located(f"{location}.p", Field.gf, p)
    if kind == "rationals":
        return Field.rationals()
    raise WorkspaceError(f"unknown field kind {kind!r}", f"{location}.kind")


def _parse_algebra(field: Field, obj, location: str) -> Algebra:
    _expect(isinstance(obj, dict), "algebra must be an object", location)
    dim = _non_negative_int(obj.get("dim"), "dim must be a non-negative int", f"{location}.dim")
    unit = _vector(field, obj.get("unit"), dim, f"{location}.unit")
    raw_mul = obj.get("mul")
    _expect(isinstance(raw_mul, list) and len(raw_mul) == dim,
            f"mul must be a {dim}-row table", f"{location}.mul")
    mul = []
    for i, row in enumerate(raw_mul):
        _expect(isinstance(row, list) and len(row) == dim,
                f"mul[{i}] must have {dim} entries", f"{location}.mul[{i}]")
        mul.append([_vector(field, v, dim, f"{location}.mul[{i}][{j}]")
                    for j, v in enumerate(row)])
    a = _located(location, Algebra, field, dim, mul, unit)
    return _lawful(a, validate_algebra(a), location)


def _parse_module(ws: Workspace, obj, location: str):
    _expect(isinstance(obj, dict), "module must be an object", location)
    alg_name = obj.get("algebra")
    _expect(isinstance(alg_name, str), "module needs an algebra name", f"{location}.algebra")
    a = _named(ws.algebras, "algebra", alg_name, f"{location}.algebra")
    dim = _non_negative_int(obj.get("dim"), "dim must be a non-negative int", f"{location}.dim")
    action = _action_mats(ws.field, obj.get("action"), a.dim, dim, f"{location}.action")
    if "right_algebra" in obj:
        b = _named(ws.algebras, "algebra", obj["right_algebra"], f"{location}.right_algebra")
        right = _action_mats(ws.field, obj.get("right_action"), b.dim, dim,
                             f"{location}.right_action")
        mod = _located(location, Bimodule, a, b, dim, action, right)
    else:
        mod = _located(location, LeftModule, a, dim, action)
    return _lawful(mod, validate_module(mod), location)


def _action_mats(field: Field, raw, count: int, dim: int, location: str) -> list:
    _expect(isinstance(raw, list) and len(raw) == count,
            f"expected one {dim}x{dim} matrix per algebra basis element ({count})", location)
    return [_matrix(field, m, dim, dim, f"{location}[{i}]") for i, m in enumerate(raw)]


def _parse_ideal(ws: Workspace, obj, location: str) -> Ideal:
    _expect(isinstance(obj, dict), "ideal must be an object", location)
    a = _named(ws.algebras, "algebra", obj.get("algebra"), f"{location}.algebra")
    raw = obj.get("basis")
    _expect(isinstance(raw, list), "ideal basis must be a list of vectors",
            f"{location}.basis")
    vecs = [_vector(ws.field, v, a.dim, f"{location}.basis[{i}]") for i, v in enumerate(raw)]
    return _located(location, Ideal, a, Basis.span(ws.field, a.dim, vecs))


def _parse_context(ws: Workspace, obj, location: str):
    _expect(isinstance(obj, dict), "context must be an object", location)
    names = []
    for key in ("R", "S", "M", "N"):
        val = obj.get(key)
        _expect(isinstance(val, str), f"context needs the name {key}", f"{location}.{key}")
        names.append(val)
    r_name, s_name, m_name, n_name = names
    r = _named(ws.algebras, "algebra", r_name, f"{location}.R")
    s = _named(ws.algebras, "algebra", s_name, f"{location}.S")
    m = _named(ws.bimodules, "bimodule", m_name, f"{location}.M")
    n = _named(ws.bimodules, "bimodule", n_name, f"{location}.N")
    _expect(m.left_algebra == r and m.right_algebra == s,
            f"{m_name!r} is not an {r_name}-{s_name} bimodule", f"{location}.M")
    _expect(n.left_algebra == s and n.right_algebra == r,
            f"{n_name!r} is not an {s_name}-{r_name} bimodule", f"{location}.N")
    phi = _matrix(ws.field, obj.get("phi"), r.dim, m.dim * n.dim, f"{location}.phi")
    psi = _matrix(ws.field, obj.get("psi"), s.dim, n.dim * m.dim, f"{location}.psi")
    ctx = _located(location, MoritaContext.from_raw_maps, r, s, m, n, phi, psi)
    return _lawful(ctx, validate_context(ctx), location), tuple(names)


def _parse_grading(ws: Workspace, obj, location: str) -> Grading:
    _expect(isinstance(obj, dict), "grading must be an object", location)
    group_obj = obj.get("group")
    _expect(isinstance(group_obj, dict) and isinstance(group_obj.get("table"), list),
            "grading needs a group with a multiplication table", f"{location}.group")
    try:
        group = FiniteGroup(tuple(tuple(r) for r in group_obj["table"]))
    except (ValueError, TypeError) as e:
        raise WorkspaceError(str(e), f"{location}.group") from None
    raw_degrees = obj.get("degrees")
    _expect(isinstance(raw_degrees, dict), "grading needs a degrees object",
            f"{location}.degrees")
    degrees = {}
    for name in sorted(raw_degrees):
        loc = f"{location}.degrees.{name}"
        if name in ws.algebras:
            want = ws.algebras[name].dim
        elif name in ws.modules:
            want = ws.modules[name].dim
        elif name in ws.bimodules:
            want = ws.bimodules[name].dim
        else:
            raise WorkspaceError(f"degrees given for unknown object {name!r}", loc)
        raw = raw_degrees[name]
        _expect(isinstance(raw, list) and len(raw) == want
                and all(isinstance(d, int) and not isinstance(d, bool) for d in raw),
                f"expected a list of {want} degree indices", loc)
        _expect(all(0 <= d < group.order for d in raw), "degree index out of range", loc)
        degrees[name] = tuple(raw)
    graded_algebras = {name: _located(f"{location}.degrees.{name}", GradedAlgebra,
                                      ws.algebras[name], group, degs)
                       for name, degs in degrees.items() if name in ws.algebras}
    contexts = {}  # every context whose R, S, M and N all have degrees here
    for cname, (r_name, s_name, m_name, n_name) in sorted(ws.context_names.items()):
        if all(n in degrees for n in (r_name, s_name, m_name, n_name)):
            try:
                contexts[cname] = GradedContext(ws.contexts[cname], graded_algebras[r_name],
                                                graded_algebras[s_name], degrees[m_name],
                                                degrees[n_name])
            except ValueError as e:
                raise WorkspaceError(f"context {cname!r}: {e}", f"{location}.degrees") from None

    def graded(a: Algebra) -> GradedAlgebra:
        alg_name = _algebra_name_of(ws, a)
        if alg_name not in graded_algebras:
            raise ValueError(f"algebra {alg_name!r} has no degrees in this grading")
        return graded_algebras[alg_name]

    # after the contexts, so that a context's bimodule fails naming its context
    for name, degs in degrees.items():
        try:
            if name in ws.modules:
                GradedModule(graded(ws.modules[name].algebra), ws.modules[name], degs)
            elif name in ws.bimodules:
                bim = ws.bimodules[name]
                check_bimodule_degrees(bim, graded(bim.left_algebra), graded(bim.right_algebra),
                                       degs, name)
        except ValueError as e:
            raise WorkspaceError(str(e), f"{location}.degrees.{name}") from None
    return Grading(group, degrees, graded_algebras, contexts)


def _algebra_name_of(ws: Workspace, a: Algebra) -> Optional[str]:
    for name, cand in ws.algebras.items():
        if cand == a:
            return name
    return None


def _parse_catalog(ws: Workspace, obj, location: str) -> CatalogRecipe:
    _expect(isinstance(obj, dict), "catalog must be an object", location)
    alg_name = obj.get("algebra")
    alg = _named(ws.algebras, "algebra", alg_name, f"{location}.algebra")
    if "modules" in obj:
        mods = obj["modules"]
        _expect(isinstance(mods, list) and all(isinstance(x, str) for x in mods),
                "modules must be a list of names", f"{location}.modules")
        for mname in mods:
            _expect(mname in ws.modules or mname in ws.bimodules,
                    f"unknown module {mname!r}", f"{location}.modules")
            _expect(ws.left_module(mname).algebra == alg,
                    f"{mname!r} is over a different algebra", f"{location}.modules")
        return CatalogRecipe(alg_name, None, tuple(mods))
    max_dim = _non_negative_int(obj.get("max_dim"), "catalog needs max_dim or a modules list",
                                f"{location}.max_dim")
    return CatalogRecipe(alg_name, max_dim, None)


def parse_workspace(path: str) -> Workspace:
    """Load and validate one workspace document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise WorkspaceError(str(e), path) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkspaceError(f"invalid JSON: {e.msg}",
                             f"{os.path.basename(path)}:line {e.lineno}") from None
    _expect(isinstance(data, dict), "workspace must be a JSON object", "top level")
    _expect("field" in data, "workspace needs a field declaration", "field")
    ws = Workspace(_parse_field(data["field"], "field"))
    for section in ("algebras", "modules", "ideals", "contexts", "gradings", "catalogs"):
        _expect(isinstance(data.get(section, {}), dict),
                f"{section} must be an object of named entries", section)
    for name in sorted(data.get("algebras", {})):
        ws.algebras[name] = _parse_algebra(ws.field, data["algebras"][name],
                                           f"algebras.{name}")
    for name in sorted(data.get("modules", {})):
        # gradings key degrees by bare name, so no module may share an algebra's
        _expect(name not in ws.algebras, f"{name!r} is already an algebra", f"modules.{name}")
        mod = _parse_module(ws, data["modules"][name], f"modules.{name}")
        if isinstance(mod, Bimodule):
            ws.bimodules[name] = mod
        else:
            ws.modules[name] = mod
    for name in sorted(data.get("ideals", {})):
        ws.ideals[name] = _parse_ideal(ws, data["ideals"][name], f"ideals.{name}")
    for name in sorted(data.get("contexts", {})):
        ctx, names = _parse_context(ws, data["contexts"][name], f"contexts.{name}")
        ws.contexts[name] = ctx
        ws.context_names[name] = names
    for name in sorted(data.get("gradings", {})):
        ws.gradings[name] = _parse_grading(ws, data["gradings"][name], f"gradings.{name}")
    for name in sorted(data.get("catalogs", {})):
        ws.catalogs[name] = _parse_catalog(ws, data["catalogs"][name], f"catalogs.{name}")
    return ws


# ------------------------------------------------------------ serialization


def vector_to_json(field: Field, vec) -> list:
    return [field.to_json(x) for x in vec]


def matrix_to_json(m: Matrix) -> list:
    return [vector_to_json(m.field, row) for row in m.entries]


def algebra_to_json(a: Algebra) -> dict:
    return {
        "dim": a.dim,
        "unit": vector_to_json(a.field, a.unit),
        "mul": [[vector_to_json(a.field, a.mul[i][j]) for j in range(a.dim)]
                for i in range(a.dim)],
    }


def module_to_json(m: LeftModule, algebra_name: str) -> dict:
    return {
        "algebra": algebra_name,
        "dim": m.dim,
        "action": [matrix_to_json(mat) for mat in m.action],
    }


def bimodule_to_json(b: Bimodule, left_name: str, right_name: str) -> dict:
    out = module_to_json(b.left_module(), left_name)
    out["right_algebra"] = right_name
    out["right_action"] = [matrix_to_json(mat) for mat in b.right_action]
    return out


def context_to_json(ctx: MoritaContext, r_name: str, s_name: str,
                    m_name: str, n_name: str) -> dict:
    """Raw-product pairing matrices, columns indexed by (i, j) pairs."""
    return {
        "R": r_name, "S": s_name, "M": m_name, "N": n_name,
        "phi": matrix_to_json(raw_pairing(ctx)),
        "psi": matrix_to_json(raw_pairing(reverse_context(ctx))),
    }


def workspace_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def builtin_workspaces() -> Dict[str, dict]:
    """The three shipped example workspaces, generated from the library
    so the files can never drift from the code."""
    from .algebra import full_matrix_algebra, upper_triangular_algebra
    from .context import corner_context, identity_context, trace_ideals
    from .modules import regular_module

    gf2 = Field.gf(2)
    out = {}

    t2 = upper_triangular_algebra(gf2, 2)
    ctx = corner_context(t2, (0, 0, 1))
    idctx = identity_context(t2)
    i, j = trace_ideals(ctx)
    t2_doc = {
        "field": {"kind": "gf", "p": 2},
        "algebras": {"T2": algebra_to_json(t2), "S": algebra_to_json(ctx.S)},
        "modules": {
            "M": bimodule_to_json(ctx.M, "T2", "S"),
            "N": bimodule_to_json(ctx.N, "S", "T2"),
            "Mid": bimodule_to_json(idctx.M, "T2", "T2"),
            "Nid": bimodule_to_json(idctx.N, "T2", "T2"),
            "T2reg": module_to_json(regular_module(t2), "T2"),
            "S1": _scalar_module_json("T2", [1, 0, 0]),
            "S2": _scalar_module_json("T2", [0, 0, 1]),
        },
        "ideals": {
            "I": {"algebra": "T2", "basis": [vector_to_json(gf2, v) for v in i.basis.vectors]},
            "J": {"algebra": "S", "basis": [vector_to_json(gf2, v) for v in j.basis.vectors]},
        },
        "contexts": {
            "t2corner": context_to_json(ctx, "T2", "S", "M", "N"),
            "t2identity": context_to_json(idctx, "T2", "T2", "Mid", "Nid"),
        },
        "gradings": {
            "c2": {
                "group": {"table": [[0, 1], [1, 0]]},
                "degrees": {
                    "T2": [0, 1, 0], "S": [0], "M": [1, 0], "N": [0],
                    "T2reg": [0, 1, 0], "S1": [0], "S2": [0],
                },
            },
        },
        "catalogs": {
            "catR": {"algebra": "T2", "max_dim": 3},
            "catS": {"algebra": "S", "max_dim": 3},
        },
    }
    out["t2_corner.json"] = t2_doc

    m2 = full_matrix_algebra(gf2, 2)
    mctx = corner_context(m2, (1, 0, 0, 0))
    mi, mj = trace_ideals(mctx)
    out["m2_corner.json"] = {
        "field": {"kind": "gf", "p": 2},
        "algebras": {"M2": algebra_to_json(m2), "S": algebra_to_json(mctx.S)},
        "modules": {
            "M": bimodule_to_json(mctx.M, "M2", "S"),
            "N": bimodule_to_json(mctx.N, "S", "M2"),
            "M2reg": module_to_json(regular_module(m2), "M2"),
        },
        "ideals": {
            "I": {"algebra": "M2", "basis": [vector_to_json(gf2, v) for v in mi.basis.vectors]},
        },
        "contexts": {"m2corner": context_to_json(mctx, "M2", "S", "M", "N")},
        "catalogs": {
            "catR": {"algebra": "M2", "max_dim": 4},
            "catS": {"algebra": "S", "max_dim": 2},
        },
    }

    out["identity.json"] = {
        "field": {"kind": "gf", "p": 2},
        "algebras": {"T2": algebra_to_json(t2)},
        "modules": {
            "M": bimodule_to_json(idctx.M, "T2", "T2"),
            "N": bimodule_to_json(idctx.N, "T2", "T2"),
            "T2reg": module_to_json(regular_module(t2), "T2"),
        },
        "contexts": {"identity": context_to_json(idctx, "T2", "T2", "M", "N")},
    }
    return out


def _scalar_module_json(algebra_name: str, weights) -> dict:
    return {
        "algebra": algebra_name,
        "dim": 1,
        "action": [[[w]] for w in weights],
    }


def write_builtin_workspaces(directory: str) -> list:
    """Write the shipped examples into a directory; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for fname, doc in sorted(builtin_workspaces().items()):
        p = os.path.join(directory, fname)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(workspace_text(doc))
        paths.append(p)
    return paths
