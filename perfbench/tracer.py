"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public function of each harmonica module in
every module namespace that bound it (so `harmonic.right_kernel`,
`theorems.in_span` and `hermitian.right_kernel` are wrapped as well as
`linalg.*`), plus `Form.wedge`.  Each wrapped call records a span (name,
start, end, parent, request) in flat in-memory arrays.  Two hot
constructors are only counted: `GaussianRational.__init__` and
`Coefficient.derive`.  `uninstall()` restores every original binding.

`layer_metrics()` derives per-module self time (span duration minus the part
covered by child spans), call counts and the named per-layer metrics;
`write()` stores the spans at the end of the run.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from pathlib import Path

PACKAGE = "harmonica"
MODULES = (
    "scalars",
    "forms",
    "structure",
    "hermitian",
    "harmonic",
    "linalg",
    "theorems",
    "library",
    "report",
    "cli",
)
# Modules whose spans add up to the per-module self-time metrics.
SELF_TIME_MODULES = ("forms", "structure", "hermitian", "harmonic", "linalg", "theorems", "library", "cli")
HARMONIC_KINDS = ("d", "del", "delbar", "bc", "a")

# Per-layer metric names, in output order (trace.overhead_ratio is added by run.py).
LAYER_METRICS = (
    "linalg.rref_calls",
    "linalg.rref_s",
    "linalg.rref_cells",
    "linalg.in_span_calls",
    "linalg.in_span_s",
    "linalg.rref_per_in_span",
    "linalg.right_kernel_s",
    "linalg.intersection_s",
    "harmonic.space_calls",
    "harmonic.space_reuse_ratio",
    *(f"harmonic.space_s.{k}" for k in HARMONIC_KINDS),
    "harmonic.laplacian_calls",
    "harmonic.laplacian_distinct_ratio",
    "harmonic.laplacian_self_s",
    "harmonic.is_harmonic_s",
    "structure.exterior_d_calls",
    "structure.exterior_d_self_s",
    "structure.component_calls",
    "structure.validate_s",
    "hermitian.star_calls",
    "hermitian.star_self_s",
    "hermitian.lefschetz_calls",
    "hermitian.primitive_basis_s",
    "hermitian.primitive_decompose_s",
    "forms.wedge_calls",
    "forms.wedge_self_s",
    "scalars.gauss_new",
    "scalars.derive_calls",
    "theorems.statements_s",
    "theorems.relations_s",
    "theorems.edge_s",
    "theorems.decomp_s",
    "theorems.lefschetz_s",
    "library.load_s",
    "cli.self_s",
    *(f"{m}.self_s" for m in SELF_TIME_MODULES if m != "cli"),
    "trace.spans",
)
# Metrics that are counts: they must repeat exactly for one seed.
COUNT_METRICS = tuple(
    m for m in LAYER_METRICS if m.endswith("_calls") or m in ("linalg.rref_cells", "scalars.gauss_new", "trace.spans")
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _harmonic_space_label(args, kwargs):
    return _arg(args, kwargs, 0, "kind").value


def _rref_cells(tracer, args, kwargs):
    rows = _arg(args, kwargs, 0, "rows")
    tracer.cells += len(rows) * (len(rows[0]) if rows else 0)


def _space_key(tracer, args, kwargs):
    key = tuple(_arg(args, kwargs, i, name) for i, name in enumerate(("kind", "p", "q")))
    spec = _arg(args, kwargs, 3, "spec")
    tracer.keys.setdefault("harmonic.harmonic_space", set()).add((*key, id(spec)))


def _laplacian_key(tracer, args, kwargs):
    key = (_arg(args, kwargs, 0, "kind"), _arg(args, kwargs, 1, "form"), id(_arg(args, kwargs, 2, "spec")))
    tracer.keys.setdefault("harmonic.laplacian_apply", set()).add(key)


# Extra bookkeeping for a few wrapped functions, run before the call.
_HOOKS = {
    "linalg.rref": _rref_cells,
    "harmonic.harmonic_space": _space_key,
    "harmonic.laplacian_apply": _laplacian_key,
}
# Functions whose span name carries an argument-derived label.
_LABELS = {"harmonic.harmonic_space": _harmonic_space_label}
# (module, class, method, span name) wrapped with spans.
_SPAN_METHODS = (("forms", "Form", "wedge", "forms.wedge"),)
# (module, class, method, counter name) only counted.
_COUNTED_METHODS = (
    ("scalars", "GaussianRational", "__init__", "scalars.gauss_new"),
    ("scalars", "Coefficient", "derive", "scalars.derive_calls"),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array.array("H")
        self.parent = array.array("i")
        self.req = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list = []
        self.request = -1
        self.counters: dict = {}
        self.keys: dict = {}
        self.cells = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, fn, name: str):
        name_id, parent, req, start, end, stack = (
            self.name_id, self.parent, self.req, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        label = _LABELS.get(name)
        fixed_id = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            i = len(start)
            name_id.append(fixed_id if label is None else tracer._intern(f"{name}/{label(args, kwargs)}"))
            parent.append(stack[-1] if stack else -1)
            req.append(tracer.request)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        box = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules[PACKAGE]
        modules = {short: sys.modules[f"{PACKAGE}.{short}"] for short in MODULES}
        namespaces = [pkg, *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._span_wrapper(obj, f"{short}.{attr}")
                for ns in namespaces:
                    for bound_name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound_name, wrapper)
        for short, cls_name, meth, name in _SPAN_METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, meth, self._span_wrapper(vars(cls)[meth], name))
        for short, cls_name, meth, name in _COUNTED_METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, meth, self._count_wrapper(vars(cls)[meth], name))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived metrics -------------------------------------------------------

    def layer_metrics(self) -> dict:
        n = len(self.start)
        names = [self.names[k] for k in self.name_id]
        base = [name.split("/")[0] for name in names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            if self.parent[i] >= 0:
                own[self.parent[i]] -= dur[i]

        def under(wanted):
            # spans are stored in call order, so a parent precedes its children
            flags = [False] * n
            for i in range(n):
                p = self.parent[i]
                flags[i] = p >= 0 and (flags[p] or base[p] in wanted)
            return flags

        def count(*wanted):
            return sum(1 for b in base if b in wanted)

        def inclusive(*wanted):
            nested = under(wanted)
            return sum(dur[i] for i in range(n) if base[i] in wanted and not nested[i])

        def self_of(name):
            return sum(own[i] for i in range(n) if base[i] == name)

        def ratio(key, n_calls):
            return len(self.keys.get(key, ())) / n_calls if n_calls else 0.0

        in_span_calls = count("linalg.in_span")
        inside_in_span = under(("linalg.in_span",))
        rref_in_span = sum(1 for i in range(n) if base[i] == "linalg.rref" and inside_in_span[i])
        space_calls = count("harmonic.harmonic_space")
        laplacian_calls = count("harmonic.laplacian_apply")
        module_self: dict = {}
        for i in range(n):
            module = base[i].split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + own[i]
        out = {
            "linalg.rref_calls": count("linalg.rref"),
            "linalg.rref_s": inclusive("linalg.rref"),
            "linalg.rref_cells": self.cells,
            "linalg.in_span_calls": in_span_calls,
            "linalg.in_span_s": inclusive("linalg.in_span"),
            "linalg.rref_per_in_span": rref_in_span / in_span_calls if in_span_calls else 0.0,
            "linalg.right_kernel_s": inclusive("linalg.right_kernel"),
            "linalg.intersection_s": inclusive("linalg.subspace_intersection"),
            "harmonic.space_calls": space_calls,
            "harmonic.space_reuse_ratio": ratio("harmonic.harmonic_space", space_calls),
            "harmonic.laplacian_calls": laplacian_calls,
            "harmonic.laplacian_distinct_ratio": ratio("harmonic.laplacian_apply", laplacian_calls),
            "harmonic.laplacian_self_s": self_of("harmonic.laplacian_apply"),
            "harmonic.is_harmonic_s": inclusive("harmonic.is_harmonic"),
            "structure.exterior_d_calls": count("structure.exterior_d"),
            "structure.exterior_d_self_s": self_of("structure.exterior_d"),
            "structure.component_calls": count("structure.differential_component"),
            "structure.validate_s": inclusive("structure.check_integrability_relations"),
            "hermitian.star_calls": count("hermitian.hodge_star"),
            "hermitian.star_self_s": self_of("hermitian.hodge_star"),
            "hermitian.lefschetz_calls": count("hermitian.lefschetz_L", "hermitian.lefschetz_lambda"),
            "hermitian.primitive_basis_s": inclusive("hermitian.primitive_basis"),
            "hermitian.primitive_decompose_s": inclusive("hermitian.primitive_decompose"),
            "forms.wedge_calls": count("forms.wedge"),
            "forms.wedge_self_s": self_of("forms.wedge"),
            "scalars.gauss_new": self.counters.get("scalars.gauss_new", [0])[0],
            "scalars.derive_calls": self.counters.get("scalars.derive_calls", [0])[0],
            "theorems.statements_s": inclusive("theorems.all_statements"),
            "theorems.relations_s": inclusive("theorems.verify_relations"),
            "theorems.edge_s": inclusive("theorems.verify_edge_decomps"),
            "theorems.decomp_s": inclusive("theorems.verify_decomp_11", "theorems.verify_decomp_n1n1"),
            "theorems.lefschetz_s": inclusive("theorems.verify_lefschetz_d"),
            "library.load_s": inclusive("library.load_spec_path", "library.load_spec"),
            "trace.spans": n,
        }
        space_nested = under(("harmonic.harmonic_space",))
        for kind in HARMONIC_KINDS:
            out[f"harmonic.space_s.{kind}"] = sum(
                dur[i] for i in range(n) if names[i] == f"harmonic.harmonic_space/{kind}" and not space_nested[i]
            )
        for module in SELF_TIME_MODULES:
            out[f"{module}.self_s"] = module_self.get(module, 0.0)
        return {name: out[name] for name in LAYER_METRICS}

    def write(self, path: Path) -> None:
        """Spans as a JSON header plus one binary file of the raw arrays."""
        path = Path(path)
        fields = ("name_id", "parent", "req", "start", "end")
        with open(path.with_suffix(".spans"), "wb") as fh:
            for field in fields:
                getattr(self, field).tofile(fh)
        header = {
            "count": len(self.start),
            "names": self.names,
            "arrays": [[f, getattr(self, f).typecode] for f in fields],
            "clock": "time.perf_counter, seconds",
            "counters": {k: v[0] for k, v in self.counters.items()},
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")


def read_spans(path: Path) -> dict:
    """The arrays written by Tracer.write, keyed by field name."""
    path = Path(path)
    header = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    out = {"names": header["names"]}
    with open(path.with_suffix(".spans"), "rb") as fh:
        for field, code in header["arrays"]:
            arr = array.array(code)
            arr.fromfile(fh, header["count"])
            out[field] = arr
    return out
