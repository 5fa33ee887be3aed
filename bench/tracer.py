"""Layer spans and counts, installed on vtangle from outside the program.

install() wraps the public functions of each vtangle module and the
arithmetic methods of its value classes, then rebinds every name under
which a vtangle module imported a wrapped function (cli, conductance and
verify each hold their own reference to bracket, build_basic and others),
and every entry of a module-level dict that holds one (cli._SINGLE_PATH).
A wrapper records a span only while the tracer is active, so inputs can be
generated between calls without being counted.

A span's self time is its duration minus the time of the spans it
encloses, kept on a stack; a layer's self time is the sum over its spans.
Time spent in code that is not wrapped (the stdlib, private helpers) counts
to the innermost enclosing span: Fraction work inside a GaussRational
method is gaussian time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "vector",
    "diagram",
    "bracket",
    "laurent",
    "cyclotomic",
    "gaussian",
    "conductance",
    "verify",
)

# Methods wrapped on each layer's classes, besides its public functions.
METHODS = {
    "vector": {"TangleVector": ("validate", "normalized", "extended_odd", "__str__")},
    "diagram": {"TangleDiagram": ("__post_init__",)},
    "bracket": {"BracketTriple": ("scaled", "as_dict")},
    "laurent": {
        "LaurentPoly": (
            "__init__", "__eq__", "__hash__", "__add__", "__neg__", "__sub__",
            "__mul__", "__rmul__", "shift", "__pow__", "__str__",
        ),
    },
    "cyclotomic": {
        "Cyc8": (
            "__eq__", "__hash__", "__add__", "__neg__", "__sub__", "__mul__",
            "__pow__", "galois", "invert", "__truediv__", "to_gauss",
        ),
    },
    "gaussian": {
        "GaussRational": (
            "__init__", "__eq__", "__hash__", "__add__", "__neg__", "__sub__",
            "__mul__", "invert", "__truediv__", "mul_i", "is_zero", "__str__",
            "real_str",
        ),
    },
}

LAURENT_OPS = ("laurent.LaurentPoly.__mul__", "laurent.LaurentPoly.__rmul__",
               "laurent.LaurentPoly.__add__")
CYCLOTOMIC_OPS = ("cyclotomic.eval_at_zeta8", "cyclotomic.Cyc8.__mul__",
                  "cyclotomic.Cyc8.invert", "cyclotomic.Cyc8.__truediv__")
FOLD_CALLS = ("bracket.combine_triples", "bracket.bracket_elementary")
ROUTES = (
    "conductance.conductance_from_bracket",
    "conductance.conductance_recursive",
    "conductance.continued_fraction_C",
    "conductance.closed_form",
    "conductance.classical_fraction",
)
SUITES = (
    "verify.run_equivalence_suite",
    "verify.run_invariance_suite",
    "verify.run_additivity_suite",
    "verify.run_ratio_suite",
)
ENUMERATE = "verify.enumerate_classify"

# Per-layer metric name -> unit, in the order they are reported.
METRICS = {
    "bracket.self_s": "s",
    "bracket.calls": "count",
    "bracket.states": "count",
    "bracket.ns_per_state": "ns",
    "bracket.fold_calls": "count",
    "gaussian.self_s": "s",
    "gaussian.ops": "count",
    "conductance.self_s": "s",
    "conductance.route_calls": "count",
    "conductance.route_errors": "count",
    "conductance.route_yield": "1",
    "verify.self_s": "s",
    "verify.fallbacks": "count",
    "verify.checks": "count",
    "cyclotomic.self_s": "s",
    "cyclotomic.ops": "count",
    "diagram.self_s": "s",
    "diagram.calls": "count",
    "diagram.nodes_built": "count",
    "laurent.self_s": "s",
    "laurent.ops": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "vector.self_s": "s",
    "trace.overhead_ratio": "1",
}


class Tracer:
    """Span stack, per-function self time and calls, and exact counts."""

    def __init__(self):
        self.active = False
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self._undo = []

    def _wrap(self, key, fn, before=None, after=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn)
        tracer, stack = self, self.stack
        self_s, calls, errors = self.self_s, self.calls, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            calls[key] += 1
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[key] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_generator(self, key, fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            # Each resumption is a span of its own, charged where it runs.
            it = fn(*args, **kwargs)
            step = self._wrap(key, lambda: next(it))
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return generator

    def _hooks(self, key):
        counts, stack = self.counts, self.stack
        if key == "bracket.bracket":
            def before(args):
                counts["bracket.states"] += 1 << args[0].n_classical
                if stack and stack[-1][0] == ENUMERATE:
                    counts["verify.fallbacks"] += 1
            return before, None
        if key == "diagram.TangleDiagram.__post_init__":
            def before(args):
                counts["diagram.nodes_built"] += len(args[0].signs)
            return before, None
        if key in SUITES:
            def after(result):
                counts["verify.checks"] += len(result)
            return None, after
        return None, None

    def install(self) -> None:
        import vtangle.cli  # noqa: F401  (loads every layer)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"vtangle.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    key = f"{layer}.{name}"
                    wrappers[obj] = self._wrap(key, obj, *self._hooks(key))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in methods:
                    orig = cls.__dict__[name]
                    key = f"{layer}.{cls_name}.{name}"
                    setattr(cls, name, self._wrap(key, orig, *self._hooks(key)))
                    self._undo.append((cls, name, orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "vtangle" and not mod_name.startswith("vtangle."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._undo.append((mod, name, obj))
                elif isinstance(obj, dict):
                    # Dispatch tables such as cli._SINGLE_PATH.
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            obj[k] = wrappers[v]
                            self._undo.append((obj, k, v))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)

    def tables(self) -> dict:
        """Plain tables a parent process turns into metrics."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
        }


def layer_self_s(tables) -> dict:
    out = dict.fromkeys(LAYERS, 0.0)
    for key, seconds in tables["self_s"].items():
        out[key.split(".", 1)[0]] += seconds
    return out


def layer_metrics(tables, overhead_ratio: float) -> dict:
    """Every per-layer metric of METRICS, as {name: value}."""
    layer_s = layer_self_s(tables)
    calls, errors, counts = (Counter(tables[k]) for k in ("calls", "errors", "counts"))
    states = counts["bracket.states"]
    route_calls = sum(calls[k] for k in ROUTES)
    route_errors = sum(errors[k] for k in ROUTES)
    values = {f"{layer}.self_s": seconds for layer, seconds in layer_s.items()}
    values.update({
        "bracket.calls": calls["bracket.bracket"],
        "bracket.states": states,
        "bracket.ns_per_state": layer_s["bracket"] * 1e9 / states if states else 0.0,
        "bracket.fold_calls": sum(calls[k] for k in FOLD_CALLS),
        "gaussian.ops": sum(n for k, n in calls.items() if k.startswith("gaussian.")),
        "conductance.route_calls": route_calls,
        "conductance.route_errors": route_errors,
        "conductance.route_yield": (
            (route_calls - route_errors) / route_calls if route_calls else 1.0
        ),
        "verify.fallbacks": counts["verify.fallbacks"],
        "verify.checks": counts["verify.checks"],
        "cyclotomic.ops": sum(calls[k] for k in CYCLOTOMIC_OPS),
        "diagram.calls": sum(
            n for k, n in calls.items() if k.startswith("diagram.") and k.count(".") == 1
        ),
        "diagram.nodes_built": counts["diagram.nodes_built"],
        "laurent.ops": sum(calls[k] for k in LAURENT_OPS),
        "cli.calls": calls["cli.main"],
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: values[name] for name in METRICS}
