"""Span tracing for the benchmark's traced runs.

The tracer wraps, from outside, every public function that the seldkit
modules `dsp`, `nn`, `models`, `metrics`, `synth` and `cli` define, plus the
public methods of `models.SeldModel`. Wrapping happens only around a traced
op and is undone after it, so untraced ops in the same process run the
library exactly as shipped. Spans stay in memory as
(name, start, end, parent, op) records and are written out once, when the
run ends.

The library resolves its cross-module calls through module attributes
(`nn.conv2d(...)`) and its same-module calls through module globals, which
are the same dictionary, so replacing the attribute is seen by every caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

MODULES = ("dsp", "nn", "models", "metrics", "synth", "cli")
MODEL_METHODS = (
    "forward", "forward_cached", "backward", "tcn_forward", "resblock_forward",
    "to_store", "load_store",
)
ROOT = "op"
# A workload's op enters the library through one of these; the spans directly
# below an entry span are the op's top-level layer spans.
ENTRY_SPANS = ("cli.main", "models.train", "models.forward")


class Tracer:
    """In-memory span recorder with optional per-span counters."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.counts = {}     # span index -> {counter name: value}
        self._stack = []
        self._op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self):
        return self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                index = tracer._close()
            if counter is not None:
                tracer.counts[index] = counter(args, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id, seldkit_pkg, counters):
        """Trace one op: patch the library, open the root span, restore after."""
        patched = []
        for mod_name in MODULES:
            mod = importlib.import_module(f"{seldkit_pkg}.{mod_name}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{mod_name}.{attr}"
                patched.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, counters.get(name)))
        model_cls = importlib.import_module(f"{seldkit_pkg}.models").SeldModel
        for attr in MODEL_METHODS:
            fn = vars(model_cls)[attr]
            name = f"models.{attr}"
            patched.append((model_cls, attr, fn))
            setattr(model_cls, attr, self._wrap(name, fn, counters.get(name)))

        self._op = op_id
        rec = self._open(ROOT)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._close()
            self._op = None
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def write_csv(self, path):
        """Write every span as one CSV row; times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["span,name,start_ns,end_ns,parent,op"]
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            lines.append(f"{i},{name},{round((start - t0) * 1e9)},"
                         f"{round((end - t0) * 1e9)},{parent},{op}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def summarize(tracer):
    """Per-op aggregates: inclusive and self time per span name, counters.

    Returns a list with one dict per traced op:
    {"wall": s, "incl": {name: s}, "self": {name: s}, "calls": {name: n},
     "counts": {name: {counter: total}}, "top_level": s}.
    Layer spans `nn.conv2d_relu_pool` are renamed `.l<i>` by their order
    under their parent, so each front-end layer is reported on its own.
    """
    spans = tracer.spans
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)

    names = [s[0] for s in spans]
    for kids in children.values():
        layer = 0
        for i in kids:
            if names[i] == "nn.conv2d_relu_pool":
                names[i] = f"nn.conv2d_relu_pool.l{layer}"
                layer += 1

    ops = []
    for root in children.get(-1, []):
        if names[root] != ROOT:
            continue
        agg = {"wall": spans[root][2] - spans[root][1], "incl": {}, "self": {},
               "calls": {}, "counts": {}, "top_level": 0.0}
        stack = [(root, ())]
        while stack:
            i, ancestors = stack.pop()
            name = names[i]
            agg["calls"][name] = agg["calls"].get(name, 0) + 1
            dur = spans[i][2] - spans[i][1]
            kids = children.get(i, [])
            child_time = sum(spans[k][2] - spans[k][1] for k in kids)
            if name not in ancestors:  # count recursion once
                agg["incl"][name] = agg["incl"].get(name, 0.0) + dur
            agg["self"][name] = agg["self"].get(name, 0.0) + dur - child_time
            for key, value in tracer.counts.get(i, {}).items():
                bucket = agg["counts"].setdefault(name, {})
                bucket[key] = bucket.get(key, 0) + value
            parent = spans[i][3]
            if (name != ROOT and names[parent] in ENTRY_SPANS
                    and spans[parent][3] == root):
                agg["top_level"] += dur
            stack.extend((k, ancestors + (name,)) for k in kids)
        ops.append(agg)
    return ops


def forward_mac_checks(tracer):
    """For each traced fused forward: (expected, observed stage MAC sum).

    `expected` is the `count_macs` counter recorded on the `models.forward`
    span; `observed` sums the `macs` counters of its descendant stage spans
    (front-end layers, temporal block, dense heads).
    """
    spans = tracer.spans
    children = {}
    for i, rec in enumerate(spans):
        children.setdefault(rec[3], []).append(i)
    checks = []
    for i, rec in enumerate(spans):
        if rec[0] != "models.forward" or "count_macs" not in tracer.counts.get(i, {}):
            continue
        observed, fused, stack = 0, False, list(children.get(i, []))
        while stack:
            k = stack.pop()
            fused |= spans[k][0] == "nn.conv2d_relu_pool"
            observed += tracer.counts.get(k, {}).get("macs", 0)
            stack.extend(children.get(k, []))
        if fused:
            checks.append((tracer.counts[i]["count_macs"], observed))
    return checks
