"""Outside-in span tracer for the raymoments package.

The tracer changes no file of the package.  ``Tracer.install`` replaces each
public function of the five layer modules with a timing wrapper, in every
``raymoments`` module namespace that holds it (the modules import each other's
functions by name, sometimes under another name), and wraps the two methods
that carry most of the per-object work, ``MomentExpression.evaluate`` and
``PolyGauss.derive``, on their classes.  ``Tracer.restore`` puts every
original object back.

Each call becomes one span ``(name, start, end, parent)``: ``parent`` is the
index of the enclosing traced call, or -1.  Spans stay in memory until the run
ends.  ``summarize`` turns them into call counts and self times (a span's
duration minus the durations of its direct children; spans nest strictly,
because a run is one thread).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "raymoments"
LAYERS = ("verify", "diffops", "moments", "polygauss", "symtensor")
METHODS = (("moments", "MomentExpression", "evaluate"),
           ("polygauss", "PolyGauss", "derive"))
# Scalar predicates run once per coefficient (about a million calls in one
# verdict); a span each would cost more than the work they do.  Their time
# stays in the caller's self time.
UNTRACED = frozenset({"polygauss.is_rational", "polygauss.all_rational"})


def _layer_functions(module) -> dict:
    """Public functions defined in ``module``, keyed by the function object."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")
                and f"{layer}.{name}" not in UNTRACED):
            found[obj] = f"{layer}.{name}"
    return found


def poly_terms(result) -> int:
    """Polynomial terms held by an operator output (0 for non-tensors)."""
    items = getattr(result, "items", None)
    if items is None:
        return 0
    return sum(len(value.poly.terms) for _, value in items()
               if hasattr(value, "poly"))


class Tracer:
    """Patches the package on ``install`` and undoes it on ``restore``."""

    def __init__(self):
        self.spans: list = []
        self.out_terms = 0
        self.names: list[str] = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, fn, name: str):
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_terms = name.startswith("diffops.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counts_terms:
                self.out_terms += poly_terms(result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.names.clear()
        layers = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        wrappers = {}
        for module in layers:
            for fn, name in _layer_functions(module).items():
                wrappers[fn] = self._wrap(fn, name)
        namespaces = [module for mod_name, module in list(sys.modules.items())
                      if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patch(cls, method,
                        self._wrap(original, f"{layer}.{cls_name}.{method}"))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(spans) -> dict:
    """Per-name call counts and self times, and self time per layer module."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    module_self_s = {layer: 0.0 for layer in LAYERS}
    for index, (name, start, end, _) in enumerate(spans):
        own = (end - start) - child[index]
        calls[name] += 1
        self_s[name] += own
        module_self_s[name.split(".", 1)[0]] += own
    return {"calls": dict(calls), "self_s": dict(self_s),
            "module_self_s": module_self_s}
