"""Outside-in span tracing of curvlab's layers.

The tracer wraps the public functions of each layer module from outside the
package: every function named in the module's ``__all__`` (for ``cli``, which
has no ``__all__``, its console-script entry ``main``), plus the functions held
in a public dict such as ``verify.CHECKS``.  A wrapper replaces every binding
of the original function object in every loaded ``curvlab`` namespace, so the
``from .x import y`` copies in ``curvature``, ``verify``, ``cli`` and the
package ``__init__`` are traced as well.  ``uninstall`` puts the originals
back, so untraced passes run the unmodified program.

A span is ``[name_id, start, end, parent, op, attrs]``: ``parent`` is the index
of the enclosing span (-1 at the root), ``op`` the operation id the benchmark
set when the span opened, and ``attrs`` an optional dict filled by a per-name
hook.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter

LAYERS = ("immersions", "curvature", "designs", "curves", "bounds", "verify", "cli")
ENTRY_POINTS = {"cli": ("main",)}


def _lp_size(args, kwargs, result):
    """Rows, columns and outcome of one exact_lp_feasible(A, b) call."""
    A = args[0] if args else kwargs["A"]
    return {"rows": len(A), "cols": len(A[0]) if len(A) else 0,
            "feasible": result is not None}


HOOKS = {"designs.exact_lp_feasible": _lp_size}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(span name, function) for every public function of every layer."""
        for layer in LAYERS:
            mod = sys.modules[f"curvlab.{layer}"]
            for attr in getattr(mod, "__all__", ENTRY_POINTS.get(layer, ())):
                value = getattr(mod, attr)
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    yield f"{layer}.{attr}", value
                elif isinstance(value, dict):
                    for key, fn in value.items():
                        if isinstance(fn, types.FunctionType):
                            yield f"{layer}.{key}", fn

    def install(self):
        """Replace every binding of each traced function in curvlab's namespaces."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for name, fn in self._targets():
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "curvlab" and not modname.startswith("curvlab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod.__dict__, attr, value))
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = self._wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patches.append((value, key, item))
                            value[key] = hit[1]

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def dump(self, path):
        """Write the names table and every span as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "names": self.names, "spans": self.spans}, fh)


def pass_profile(names, spans, lo, hi):
    """Per-name calls, self and inclusive time, and per-layer self time.

    Covers ``spans[lo:hi]``, the spans of one pass.  A span's self time is its
    duration minus the durations of its direct children.
    """
    child = [0.0] * (hi - lo)
    for rec in spans[lo:hi]:
        if rec[3] >= lo:
            child[rec[3] - lo] += rec[2] - rec[1]
    calls, self_t, incl, layer_self, attrs = {}, {}, {}, {}, {}
    for i, rec in enumerate(spans[lo:hi]):
        name = names[rec[0]]
        dur = rec[2] - rec[1]
        calls[name] = calls.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        incl[name] = incl.get(name, 0.0) + dur
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[i]
        if rec[5]:
            attrs.setdefault(name, []).append(rec[5])
    return {"calls": calls, "self": self_t, "incl": incl,
            "layer_self": layer_self, "attrs": attrs}
