"""Spans and work counters recorded from outside moritakit.

The tracer wraps the public functions of the library's modules, plus the
few methods that the per-layer metrics name, and installs each wrapper in
every moritakit namespace that binds the original (``from .x import f``
copies a function into the importing module, so patching the defining
module alone would miss those calls).  Library code is not edited.

A span is (name, start, end, parent span, task id).  Spans stay in
memory in flat arrays and are written out when the run ends; per-layer
metrics are derived from them afterwards.  Self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = ("exactlin", "algebra", "modules", "context", "torsion",
          "equivalence", "graded", "workspace", "cli")

# Leaf loops over vectors, called millions of times per pass: spans on
# them would multiply the traced run's time and memory, so their time is
# counted in the calling span's self time.
UNWRAPPED = frozenset({"zero_vector", "unit_vector", "vec_add", "vec_sub",
                       "vec_scale", "vec_is_zero"})

# Methods that per-layer metrics name, as (module, class, attribute).
METHODS = (
    ("exactlin", "Matrix", "__matmul__"),
    ("exactlin", "Matrix", "is_invertible"),
    ("exactlin", "Basis", "span"),
    ("modules", "HomBasis", "from_coords"),
    ("torsion", "TorsionTheory", "from_ideal"),
)

FOUND, SAMPLED = 1, 2


def _iso_outcome(result) -> int:
    flags = FOUND if result.map_ is not None else 0
    return flags if result.exhaustive else flags | SAMPLED


# span name -> function of the wrapped call's return value giving flag bits
OUTCOMES = {"modules.is_isomorphic": _iso_outcome}


class Tracer:
    """Collects spans while installed; install() and uninstall() patch and
    restore the library's namespaces."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.flag = array("b")
        self._stack = [-1]
        self.current_task = 0
        self._patches = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        outcome = OUTCOMES.get(name)
        clock = time.perf_counter
        stack = self._stack
        span_name, span_start, span_end = self.name, self.start, self.end
        span_parent, span_task, span_flag = self.parent, self.task, self.flag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_task.append(self.current_task)
            span_flag.append(0)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if outcome is not None:
                span_flag[idx] = outcome(result)
            return result

        return wrapper

    def install(self, lib) -> None:
        """Wrap every public function defined in the library's modules and
        the METHODS, in every namespace of the package that binds them."""
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for layer, cls_name, attr in METHODS:
            cls = getattr(getattr(lib, layer), cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)
        package = lib.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str, task_labels: dict) -> None:
        """Gzipped text: one JSON header line, then one tab-separated line
        per span: name, start, end, parent index (-1 for a root), task id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end", "parent", "task"],
                                 "names": self.names,
                                 "tasks": {str(k): v for k, v in task_labels.items()}}) + "\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\t{self.task[i]}\n")


class Profile:
    """Per-span derived quantities over the spans of a chosen set of tasks."""

    def __init__(self, tracer: Tracer, tasks):
        tasks = set(tasks)
        n = len(tracer.name)
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += tracer.end[i] - tracer.start[i]
        self.tracer = tracer
        self.self_time = [tracer.end[i] - tracer.start[i] - child[i] for i in range(n)]
        self._by_name = {}
        for i in range(n):
            if tracer.task[i] in tasks:
                self._by_name.setdefault(tracer.name[i], []).append(i)

    def _ids(self, names) -> set:
        ids = self.tracer._name_ids
        return {ids[n] for n in names if n in ids}

    def inside(self, names) -> list:
        """Per span: it or one of its ancestors is a span of these names."""
        ids = self._ids(names)
        tr = self.tracer
        out = [False] * len(tr.name)
        for i in range(len(tr.name)):
            p = tr.parent[i]
            out[i] = tr.name[i] in ids or (p >= 0 and out[p])
        return out

    def spans(self, names=None, layer=None, where=None) -> list:
        """Indices of the kept spans with one of these names, or in this layer."""
        if names is not None:
            ids = self._ids(names)
        else:
            ids = {k for k, n in enumerate(self.tracer.names) if n.startswith(layer + ".")}
        return [i for k in sorted(ids) for i in self._by_name.get(k, ())
                if where is None or where(i)]

    def calls(self, *names, where=None) -> int:
        return len(self.spans(names, where=where))

    def self_s(self, *names, layer=None, where=None) -> float:
        return sum((self.self_time[i] for i in self.spans(names or None, layer, where)), 0.0)


def layer_metrics(profile: Profile) -> dict:
    """The per-layer metrics, by the names BENCHMARK.json lists."""
    tr = profile.tracer
    p = profile
    iso = "modules.is_isomorphic"
    iso_spans = p.spans([iso])
    under_iso = p.inside([iso])
    under_graded_verify = p.inside(["graded.verify_graded_kato_muller"])
    catalog_ids = p._ids(["equivalence.build_catalog"])
    found = sum(1 for i in iso_spans if tr.flag[i] & FOUND)
    return {
        "modules.is_isomorphic.calls": (len(iso_spans), "count"),
        "modules.is_isomorphic.self_s": (p.self_s(iso), "s"),
        "modules.iso.candidates": (p.calls("modules.HomBasis.from_coords",
                                           where=lambda i: under_iso[i]), "count"),
        "modules.iso.found_ratio": (found / len(iso_spans) if iso_spans else 0.0, "ratio"),
        "modules.iso.sampled": (sum(1 for i in iso_spans if tr.flag[i] & SAMPLED), "count"),
        "equivalence.dedup.iso_calls": (
            sum(1 for i in iso_spans if tr.parent[i] >= 0 and tr.name[tr.parent[i]] in catalog_ids),
            "count"),
        "modules.submodule_lattice.calls": (p.calls("modules.submodule_lattice"), "count"),
        "modules.submodule_lattice.self_s": (p.self_s("modules.submodule_lattice"), "s"),
        "modules.lattice.cyclic_closures": (p.calls("modules.cyclic_submodule"), "count"),
        "exactlin.rref.calls": (p.calls("exactlin.rref"), "count"),
        "exactlin.rref.self_s": (p.self_s("exactlin.rref"), "s"),
        "exactlin.kernel_basis.calls": (p.calls("exactlin.kernel_basis"), "count"),
        "exactlin.span.calls": (p.calls("exactlin.Basis.span"), "count"),
        "exactlin.matmul.calls": (p.calls("exactlin.Matrix.__matmul__"), "count"),
        "exactlin.is_invertible.calls": (p.calls("exactlin.Matrix.is_invertible"), "count"),
        "exactlin.self_s": (p.self_s(layer="exactlin"), "s"),
        "modules.hom_space.calls": (p.calls("modules.hom_space"), "count"),
        "modules.hom_space.self_s": (p.self_s("modules.hom_space"), "s"),
        "modules.quotient_module.calls": (p.calls("modules.quotient_module"), "count"),
        "modules.quotient_module.self_s": (p.self_s("modules.quotient_module"), "s"),
        "modules.enumerate_submodules.calls": (p.calls("modules.enumerate_submodules"), "count"),
        "modules.enumerate_submodules.self_s": (p.self_s("modules.enumerate_submodules"), "s"),
        "equivalence.projective_oracle.calls": (p.calls("equivalence.is_I_projective_oracle"), "count"),
        "equivalence.projective_oracle.self_s": (p.self_s("equivalence.is_I_projective_oracle"), "s"),
        "modules.tensor_over.calls": (p.calls("modules.tensor_over"), "count"),
        "modules.tensor_over.self_s": (p.self_s("modules.tensor_over"), "s"),
        "context.eta_rho.calls": (p.calls("context.eta_map", "context.rho_map"), "count"),
        "context.eta_rho.self_s": (p.self_s("context.eta_map", "context.rho_map"), "s"),
        "context.evaluation_counit.calls": (p.calls("context.evaluation_counit"), "count"),
        "context.trace_ideals.calls": (p.calls("context.trace_ideals"), "count"),
        "torsion.from_ideal.calls": (p.calls("torsion.TorsionTheory.from_ideal"), "count"),
        # is_closed delegates to closedness_map; both make up the closedness test
        "torsion.is_closed.calls": (p.calls("torsion.is_closed"), "count"),
        "torsion.is_closed.self_s": (p.self_s("torsion.is_closed", "torsion.closedness_map"), "s"),
        "torsion.localize.calls": (p.calls("torsion.localize"), "count"),
        "torsion.localize.self_s": (p.self_s("torsion.localize"), "s"),
        "algebra.stabilize_ideal.calls": (p.calls("algebra.stabilize_ideal"), "count"),
        "graded.build_graded_catalog.self_s": (p.self_s("graded.build_graded_catalog"), "s"),
        "graded.is_graded_isomorphic.calls": (p.calls("graded.is_graded_isomorphic"), "count"),
        # the graded layer's own time while running the graded verifier
        "graded.verify.self_s": (p.self_s(layer="graded", where=lambda i: under_graded_verify[i]), "s"),
        "workspace.parse_workspace.calls": (p.calls("workspace.parse_workspace"), "count"),
        "workspace.parse_workspace.self_s": (p.self_s("workspace.parse_workspace"), "s"),
        "cli.main.self_s": (p.self_s("cli.main"), "s"),
    }


def iso_profile(profile: Profile, task: int) -> dict:
    """is_isomorphic calls, found and candidates within one task."""
    tr = profile.tracer
    under_iso = profile.inside(["modules.is_isomorphic"])
    in_task = lambda i: tr.task[i] == task  # noqa: E731
    iso_spans = profile.spans(["modules.is_isomorphic"], where=in_task)
    return {
        "calls": len(iso_spans),
        "found": sum(1 for i in iso_spans if tr.flag[i] & FOUND),
        "candidates": profile.calls("modules.HomBasis.from_coords",
                                    where=lambda i: in_task(i) and under_iso[i]),
    }
