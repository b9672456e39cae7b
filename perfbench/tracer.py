"""Span recorder and op counters for the ``heavenly`` layers, applied from outside.

The tracer wraps the public functions and public methods of every layer
module (plus the ring dunders of the classes those modules define) and
rebinds each wrapper at every site that holds the original: the defining
module, every ``heavenly`` module that imported the name, and the package
namespace.  Nothing inside ``src/`` is edited.

A span is opened only when a call enters a layer other than the innermost
open one; calls that stay inside a layer are counted but not timed, because
their time is that layer's self time either way.  Spans are tuples
``(name, start, end, parent, job)`` kept in memory and written out when the
run ends.

The counting pass additionally wraps the arithmetic and comparison dunders
of ``fractions.Fraction`` and charges each op to the innermost open layer,
and records the largest numerator or denominator bit length of every jet a
``jetcore`` callable returns.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "catalog", "sampling", "reports", "jetcore", "polynomials", "tetrads",
          "curvature", "recursion", "twistor", "hierarchy", "symplectic")

# Ring operations count as public even though they are dunders.
RING_DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                          "__truediv__", "__rtruediv__", "__pow__", "__neg__"})

FRACTION_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
                    "__pos__", "__neg__", "__abs__", "__eq__", "__lt__", "__gt__", "__le__",
                    "__ge__")

# Per-layer call counters: metric name -> wrapped callables whose calls it sums.
CALL_COUNTERS = {
    "jetcore.jet_of.calls": ("jetcore.jet_of",),
    "jetcore.jet_mul.calls": ("jetcore.Jet.__mul__",),
    "jetcore.reciprocal.calls": ("jetcore.Jet.reciprocal",),
    "jetcore.symbolic_diff.calls": ("jetcore.ScalarField.diff", "jetcore.partial"),
    "polynomials.mul.calls": ("polynomials.Poly.__mul__",),
    "polynomials.definite_integral.calls": ("polynomials.Poly.definite_integral",),
    "tetrads.residual.calls": ("tetrads.second_heavenly_residual",
                               "tetrads.first_heavenly_residual",
                               "tetrads.linearized_second_residual"),
    "tetrads.field_values.calls": ("tetrads.Tetrad.frame_values", "tetrads.Tetrad.coframe_values",
                                   "tetrads.MetricField.matrix_values"),
    "tetrads.commutator.calls": ("tetrads.vector_commutator_values",),
    "curvature.weyl_spinors.calls": ("curvature.weyl_spinors",),
    "curvature.riemann.calls": ("curvature.riemann",),
    "recursion.step_st.calls": ("recursion.recursion_step_st",),
    "recursion.wave_residual.calls": ("recursion.wave_residual",),
    "twistor.lax_annihilation.calls": ("twistor.lax_annihilation_residual",),
    "twistor.residue.calls": ("twistor.residue_at",),
    "hierarchy.lax_compat.calls": ("hierarchy.lax_compat_residual",),
    "hierarchy.summed_lax.calls": ("hierarchy.summed_lax_identity_residual",),
    "symplectic.pair.calls": ("symplectic.symplectic_pair",),
    "catalog.loads": ("catalog.load_catalog",),
}

FRACTION_OP_LAYERS = ("jetcore", "polynomials", "curvature")


def _public_callables(module, layer):
    """Yield (key, owner, attribute, function, rewrap) for everything the layer exports."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__ or name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj, None
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in RING_DUNDERS:
                    continue
                if isinstance(raw, staticmethod):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw.__func__, staticmethod
                elif inspect.isfunction(raw):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw, None


def _coeff_bits(jet) -> int:
    bits = 0
    for c in jet.coeffs.values():
        if isinstance(c, (int, Fraction)):
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Installs and removes the layer wrappers; owns the spans and counters they fill."""

    def __init__(self, package):
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if n == package.__name__ or n.startswith(package.__name__ + ".")]
        self.layer_modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        self.jet_class = self.layer_modules["jetcore"].Jet
        self.stack: list[str] = []       # layer of each open span, innermost last
        self.open: list[int] = []        # index of each open span in ``spans``
        self.spans: list = []
        self.job = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.fraction_ops: dict[str, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)
        self.counting = False
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped = self._build_wrappers()

    def reset(self):
        self.spans = []
        self.calls.clear()
        self.fraction_ops.clear()
        self.extra.clear()

    # -- wrappers ------------------------------------------------------------
    def _build_wrappers(self):
        wrapped = {}   # id(original) -> (original, wrapper, key, owner, attr, rewrap)
        for layer, module in self.layer_modules.items():
            for key, owner, attr, fn, rewrap in _public_callables(module, layer):
                wrapped[id(fn)] = (fn, self._wrap(fn, layer, key), key, owner, attr, rewrap)
        known = {entry[2] for entry in wrapped.values()}
        for metric, keys in CALL_COUNTERS.items():
            for key in keys:
                if key not in known:
                    print(f"perfbench: {key} not found; {metric} will read 0", file=sys.stderr)
        return wrapped

    def _after_hook(self, key, layer, fn):
        if key == "jetcore.jet_of":
            order_param = inspect.signature(fn).parameters.get("order")
            default = order_param.default if order_param else None

            def hook(args, kwargs, result):
                order = args[2] if len(args) > 2 else kwargs.get("order", default)
                if order == 0:
                    self.extra["jetcore.jet_of.order0_calls"] += 1
                self._jet_bits(result)
            return hook
        if key == "sampling.sample_points":
            def hook(args, kwargs, result):
                self.extra["sampling.points"] += len(result)
            return hook
        if key == "reports.dumps":
            def hook(args, kwargs, result):
                self.extra["reports.bytes"] += len(result.encode())
            return hook
        if layer == "jetcore":
            return lambda args, kwargs, result: self._jet_bits(result)
        return None

    def _jet_bits(self, result):
        if self.counting and isinstance(result, self.jet_class):
            bits = _coeff_bits(result)
            if bits > self.extra["jetcore.max_coeff_bits"]:
                self.extra["jetcore.max_coeff_bits"] = bits

    def _wrap(self, fn, layer, key):
        stack, open_, calls = self.stack, self.open, self.calls
        hook = self._after_hook(key, layer, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                spans = self.spans
                idx = len(spans)
                spans.append(None)
                parent = open_[-1] if open_ else -1
                stack.append(layer)
                open_.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    open_.pop()
                    spans[idx] = (key, start, end, parent, self.job)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- install / remove ----------------------------------------------------
    def install(self, count_fractions: bool = False):
        """Rebind every wrapper at every binding site; optionally count Fraction ops."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = self._wrapped
        for fn, wrapper, key, owner, attr, rewrap in wrapped.values():
            self._patch(owner, attr, rewrap(wrapper) if rewrap else wrapper)
        for module in self.modules:
            for name, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])
        self._check_bindings()
        self.counting = count_fractions
        if count_fractions:
            for name in FRACTION_DUNDERS:
                if name in vars(Fraction):
                    self._patch(Fraction, name, self._count_fraction(vars(Fraction)[name]))

    def _check_bindings(self):
        originals = {id(entry[0]) for entry in self._wrapped.values()}
        for module in self.modules:
            for name, value in vars(module).items():
                if id(value) in originals:
                    raise RuntimeError(f"unwrapped binding {module.__name__}.{name}")

    def _count_fraction(self, op):
        stack, counts = self.stack, self.fraction_ops

        def counted(*args):
            counts[stack[-1] if stack else "none"] += 1
            return op(*args)

        return counted

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.counting = False

    # -- results -------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        out = {metric: sum(self.calls.get(k, 0) for k in keys)
               for metric, keys in CALL_COUNTERS.items()}
        for name in ("jetcore.jet_of.order0_calls", "jetcore.max_coeff_bits",
                     "sampling.points", "reports.bytes"):
            out[name] = self.extra.get(name, 0)
        for layer in FRACTION_OP_LAYERS:
            out[f"{layer}.fraction_ops"] = self.fraction_ops.get(layer, 0)
        return out


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, parent, job), covered in zip(spans, child):
        out[name.split(".", 1)[0]] += (end - start) - covered
    return out
