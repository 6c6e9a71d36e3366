"""Spans at the engine's module boundaries, recorded from outside the engine.

The tracer rebinds each boundary to a wrapper: methods on their class,
so internal calls are caught too, and functions at every name in every
``highwater`` module that binds them, so ``from ... import`` copies such
as ``ideals.kernel_basis`` or ``cli.eigendecompose`` are caught as well.
A boundary that no longer exists is skipped and reports zero calls.

A span is (layer, start, end, parent span, job).  Each job gets a root
span, so the self times of one job's spans add up to its duration.
Wrappers record nothing outside a job, and ``remove`` puts the original
objects back, so blocks run with the tracer removed cost nothing extra.
Counts that repeat exactly are taken where they cost nothing: term pairs
from operand sizes, useful inserts from return values, axes from orbit
results.  Counting every
``Scalar`` construction is not cheap, so ``ScalarCounter`` does it in a
separate pass without spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (layer, module, attribute path); several attributes may share a layer
BOUNDARIES = (
    ("elements.mul", "highwater.elements", "Element.__mul__"),
    ("elements.apply", "highwater.elements", "apply"),
    ("eigen.eigendecompose", "highwater.eigen", "eigendecompose"),
    ("eigen.suites", "highwater.eigen", "fusion_check"),
    ("eigen.suites", "highwater.eigen", "product_identity_suite"),
    ("eigen.suites", "highwater.eigen", "twisted_identity_suite"),
    ("eigen.suites", "highwater.eigen", "miyamoto_consistency"),
    ("textio.parse", "highwater.textio", "parse_element"),
    ("textio.format", "highwater.textio", "format_element"),
    ("textio.format", "highwater.textio", "element_to_json"),
    ("cli.main", "highwater.cli", "main"),
    ("ideals.ideal_of", "highwater.ideals", "ideal_of"),
    ("ideals.laurent_gcd", "highwater.ideals", "laurent_gcd"),
    ("ideals.closure", "highwater.ideals", "_closure"),
    ("ideals.reduce_core", "highwater.ideals", "PatternIdeal.reduce_core"),
    ("ideals.reduce", "highwater.ideals", "PatternIdeal.reduce"),
    ("ideals.reduce", "highwater.ideals", "JIdeal.reduce"),
    ("linalg.rref_insert", "highwater.linalg", "Rref.insert"),
    ("linalg.kernel_basis", "highwater.linalg", "kernel_basis"),
    ("linalg.solve", "highwater.linalg", "solve"),
    ("linalg.mat_mul", "highwater.linalg", "mat_mul"),
    ("quotients.table", "highwater.quotients", "FiniteAlgebra.__init__"),
    ("quotients.eigenspace_split", "highwater.quotients", "eigenspace_split"),
    ("quotients.miyamoto_matrix", "highwater.quotients", "miyamoto_matrix"),
    ("quotients.axis_orbit", "highwater.quotients", "axis_orbit"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BOUNDARIES))


def _engine_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "highwater"
                                  or name.startswith("highwater."))]


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a boundary, or None if it is gone."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    return None if original is None else (owner, parts[-1], original)


class _Rebinder:
    """Replaces boundary objects and puts the originals back."""

    def __init__(self):
        self._undo = []

    def install(self, module: str, path: str, make_wrapper) -> bool:
        found = _resolve(module, path)
        if found is None:
            return False
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
        else:
            for mod in _engine_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        return True

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Collects spans in memory while a job is open."""

    def __init__(self):
        self.spans = []     # [layer, start, end, parent, job, extra]
        self.stack = []     # indices of open spans
        self.present = set()
        self.job = -1
        self._rebinder = _Rebinder()

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job: int):
        self.job = job
        self.stack.append(len(self.spans))
        self.spans.append(["job", perf_counter(), 0.0, -1, job, None])

    def end_job(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, fn, extra=None, gate=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or (gate is not None and not gate(args)):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [layer, 0.0, 0.0, stack[-1], self.job, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, out)
            return out
        return wrapper

    def install(self):
        for layer, module, path in BOUNDARIES:
            make = functools.partial(self._wrap, layer,
                                     extra=_EXTRAS.get(layer),
                                     gate=_GATES.get(layer))
            if self._rebinder.install(module, path, make):
                self.present.add(layer)

    def remove(self):
        self._rebinder.remove()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def bad_spans(self) -> int:
        """Spans that are open, have a negative self time, or leave their
        parent: a parent in another job, or an interval outside it."""
        bad = 0
        for s, st in zip(self.spans, self.self_times()):
            parent = self.spans[s[3]] if s[3] >= 0 else None
            bad += (s[2] < s[1] or st < -1e-9
                    or (parent is None) != (s[0] == "job")
                    or (parent is not None
                        and (parent[4] != s[4] or s[1] < parent[1]
                             or parent[2] < s[2])))
        return bad

    def layer_metrics(self) -> dict:
        """Calls and self time per layer, plus the counts in BENCHMARK.json."""
        selfs = self.self_times()
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS + ("job",)}
        pairs = {0: 0, 1: 0}          # term pairs by char0 / charp
        pair_self = {0: 0.0, 1: 0.0}
        useful = axes = entries = closure_products = 0
        for s, st in zip(self.spans, selfs):
            layer, extra = s[0], s[5]
            self_s[layer] += st
            if layer == "job":
                continue
            calls[layer] += 1
            if extra is None:       # no extra count, or the call raised
                continue
            if layer == "elements.mul":
                n, charp = extra
                pairs[charp] += n
                pair_self[charp] += st
                if self.spans[s[3]][0] == "ideals.closure":
                    closure_products += 1
            elif layer == "linalg.rref_insert":
                useful += extra
            elif layer == "quotients.axis_orbit":
                axes += extra
            elif layer == "quotients.table":
                entries += extra
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        m["job.self_s"] = self_s["job"]
        m["elements.mul.term_pairs"] = pairs[0] + pairs[1]
        for key, tag in ((0, "char0"), (1, "charp")):
            m[f"elements.mul.ns_per_term_pair.{tag}"] = (
                1e9 * pair_self[key] / pairs[key] if pairs[key] else 0.0)
        m["ideals.gcd_rounds_per_ideal"] = _ratio(
            calls["ideals.laurent_gcd"], calls["ideals.ideal_of"])
        m["ideals.closure_products"] = closure_products
        m["linalg.rref_insert.useful_ratio"] = _ratio(
            useful, calls["linalg.rref_insert"])
        m["quotients.table.entries"] = entries
        m["quotients.miyamoto_per_axis"] = _ratio(
            calls["quotients.miyamoto_matrix"], axes)
        return m

    def write(self, path: str):
        """Write the spans as tab-separated lines (times in ns from start)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("layer\tstart_ns\tend_ns\tparent\tjob\n")
            for s in self.spans:
                fh.write(f"{s[0]}\t{round((s[1] - t0) * 1e9)}\t"
                         f"{round((s[2] - t0) * 1e9)}\t{s[3]}\t{s[4]}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _mul_extra(args, out):
    """(term pairs, is char p) of an Element x Element product."""
    x, y = args
    return len(x.terms) * len(y.terms), int(x.field.characteristic != 0)


# spans only where the gate holds: Element * scalar is scaling, not a product
_GATES = {"elements.mul": lambda args: hasattr(args[1], "terms")}
_EXTRAS = {
    "elements.mul": _mul_extra,
    "linalg.rref_insert": lambda args, out: int(bool(out)),
    "quotients.axis_orbit": lambda args, out: len(out.axes),
    "quotients.table": lambda args, out: args[0].dim * (args[0].dim + 1) // 2,
}


class ScalarCounter:
    """Counts ``Scalar`` constructions made while a job is open."""

    def __init__(self):
        self.count = 0
        self._open = False
        self._undo = None

    def install(self):
        scalar = getattr(sys.modules.get("highwater.fields"), "Scalar", None)
        if scalar is None:
            return
        original = scalar.__init__

        def counting_init(obj, *args, **kwargs):
            if self._open:
                self.count += 1
            original(obj, *args, **kwargs)

        scalar.__init__ = counting_init
        self._undo = lambda: setattr(scalar, "__init__", original)

    def remove(self):
        if self._undo is not None:
            self._undo()

    def begin_job(self, job: int):
        self._open = True

    def end_job(self):
        self._open = False
