"""Outside-in tracing of the hermquat layers.

A ``Tracer`` replaces the public functions of each layer module with thin
wrappers, from the benchmark's side only: no line of the package changes.
A function imported by name into several modules (``is_integral`` lives in
``hermitian`` and is bound again in ``represent``, ``sweep``, ``quaternion``
and ``cli``) is replaced at every binding, so no call slips past.

Each wrapped call records a span: name, start, end, parent span and the id
of the operation that was running.  Spans are kept in flat arrays in memory
and written out when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.

Generator functions get a counting wrapper instead of a span, because a
generator's body runs interleaved with its consumer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from time import perf_counter

PKG = "hermquat"
# Layer modules whose public functions are wrapped, in the package.
LAYERS = ("sweep", "hermitian", "represent", "quaternion", "linalg", "qfield", "jsonio", "cli")
# Public methods wrapped as spans, by (module, class, method).
METHODS = (
    ("quaternion", "QuatAlgebra", "norm_gram"),
    ("quaternion", "QuatAlgebra", "reduced_norm"),
)
# A dependency the package calls by name: (short name, module, attribute).
EXTERNAL = (("ext.factorint", "sympy", "factorint"),)


def _module(name: str = ""):
    return importlib.import_module(f"{PKG}.{name}" if name else PKG)


def _package_modules():
    return [_module()] + [_module(name) for name in LAYERS + ("errors", "verify")]


class Tracer:
    """Span recorder installed around the layer functions of the package.

    ``op_boundary`` names a wrapped generator function: every item requested
    from it starts a new operation (the sweep's rows).  Otherwise the caller
    sets ``op`` before each operation.
    """

    def __init__(self, op_boundary: str | None = None):
        self.op_boundary = op_boundary
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # an ancestor span has the same name
        self.items: dict[str, int] = {}  # generator name -> items yielded
        self.outcomes: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _span_wrapper(self, name, fn, on_return=None):
        nid = self._nid(name)
        names, parents, ops = self.name, self.parent, self.op_id
        starts, ends, nested = self.start, self.end, self.nested
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            nested.append(depth[nid] > 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[nid] -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _gen_wrapper(self, name, fn):
        items = self.items
        items.setdefault(name, 0)
        boundary = name == self.op_boundary

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if boundary:
                    self.op += 1
                try:
                    item = next(it)
                except StopIteration:
                    return
                items[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _outcome(self, key, cond):
        self.outcomes.setdefault(key, 0)

        def hook(args, result):
            if cond(args, result):
                self.outcomes[key] += 1

        return hook

    def _hooks(self):
        """Return-value hooks for the counters that need an outcome."""
        return {
            "represent.global_search": self._outcome(
                "represent.global_search.hits", lambda a, r: r is not None
            ),
            # Delta > 0 exactly for indefinite forms; the pipeline only sees
            # square-free |Delta| here, where a witness is guaranteed.
            "represent.represents_one_integral": self._outcome(
                "represent.exhausted_indefinite",
                lambda a, r: r.witness is None
                and r.discriminant is not None
                and r.discriminant.value > 0,
            ),
        }

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        hooks = self._hooks()
        replace: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = _module(layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replace[id(obj)] = self._gen_wrapper(name, obj)
                else:
                    replace[id(obj)] = self._span_wrapper(name, obj, hooks.get(name))
        for name, modname, attr in EXTERNAL:
            obj = getattr(importlib.import_module(modname), attr)
            replace[id(obj)] = self._span_wrapper(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._patch(mod, attr, obj, replace[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(_module(layer), cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, fn, self._span_wrapper(f"{layer}.{cls_name}.{meth}", fn))
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results

    def summary(self):
        """Per name: calls, inclusive seconds (outermost calls) and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if not self.nested[i]:
                rec["s"] += dur
        return out

    def write(self, path):
        """All spans as gzip TSV: id, parent, op, name, start, end (seconds)."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op_id[i]}\t{names[self.name[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


class InstanceCounter:
    """Counts instances of a class created while installed (``__init__`` calls)."""

    def __init__(self, cls):
        self.cls = cls
        self.count = 0
        self._original = None

    def __enter__(self):
        original = self._original = self.cls.__dict__["__init__"]

        def init(obj, *args, **kwargs):
            self.count += 1
            original(obj, *args, **kwargs)

        self.cls.__init__ = init
        return self

    def __exit__(self, *exc):
        self.cls.__init__ = self._original


def patched_bindings():
    """Names in the package that are currently bound to a wrapper.

    Empty after a tracer is removed; the self-tests and every traced run
    check this.
    """
    found = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and hasattr(obj, "__wrapped__"):
                found.append(f"{mod.__name__}.{attr}")
    for layer, cls_name, meth in METHODS:
        cls = getattr(_module(layer), cls_name)
        if hasattr(cls.__dict__[meth], "__wrapped__"):
            found.append(f"{PKG}.{layer}.{cls_name}.{meth}")
    if _module("qfield").QElem.__dict__["__init__"].__qualname__ != "QElem.__init__":
        found.append(f"{PKG}.qfield.QElem.__init__")
    return found
