"""Run-time tracer for the microdet benchmark.

The tracer wraps the public entry points of each layer module of the
`microdet` package while it is installed, and restores the original bindings
when it is removed. Nothing under `src/` is edited. A function imported by
name into other modules (`from .tensor import conv2d`) is replaced in every
module namespace that holds it, so calls from inside the package are seen.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory
and written out by `dump`. Backward time is attributed per op kind by
wrapping the closure each forward op hands to `GradTape.record`: the kind is
the name of the innermost span open when the closure was recorded.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Span names of the forward tensor ops, grouped into the kinds the per-layer
# metrics report. `tensor.conv2d_grouped` is the g > 1 share of all convs.
TENSOR_KINDS = {
    "maxpool2d": "tensor.maxpool2d",
    "batchnorm2d": "tensor.batchnorm2d",
    "concat_channels": "tensor.layout",
    "resize_nearest": "tensor.layout",
    "add": "tensor.elementwise",
    "mul": "tensor.elementwise",
    "scalar_mul": "tensor.elementwise",
    "sum_all": "tensor.elementwise",
    "sigmoid": "tensor.elementwise",
    "tanh": "tensor.elementwise",
    "softplus": "tensor.elementwise",
    "exp": "tensor.elementwise",
    "log": "tensor.elementwise",
}

# (module, function, span name) for plain functions
FUNCTION_SPANS = [
    ("activations", "apply_activation", "activations"),
    ("activations", "mish", "activations"),
    ("activations", "silu", "activations"),
    ("activations", "relu", "activations"),
    ("simam", "simam_forward", "simam"),
    ("model", "decode", "model.decode"),
    ("losses", "detection_loss", "losses.loss"),
    ("train", "adamw_step", "train.optimizer"),
    ("metrics", "map_and_mf1", "metrics.map_mf1"),
    ("metrics", "confusion_matrix", "metrics.confusion"),
    ("dataio", "load_predictions", "dataio.load_predictions"),
    ("dataio", "load_annotations", "dataio.load_annotations"),
    ("dataio", "read_t4", "dataio.read_t4"),
    ("tensor", "backward", "tensor.backward"),
]
# (module, class, method, span name)
METHOD_SPANS = [
    ("ghost", "C3Block", "forward", "ghost.c3"),
    ("ghost", "GhostConv", "forward", "ghost.conv"),
    ("sppf", "SimSppf", "forward", "sppf"),
    ("sppf", "PlainSppf", "forward", "sppf"),
    ("neck", "IgdNeck", "forward", "neck"),
    ("model", "MicroDetector", "forward", "model.forward"),
    ("model", "_Head", "forward", "model.heads"),
]


class Tracer:
    """Installs span and counter wrappers; aggregates them per op."""

    def __init__(self, package):
        self.pkg = package
        self.modules = {name: getattr(package, name) for name in (
            "tensor", "activations", "simam", "ghost", "sppf", "neck", "model",
            "losses", "metrics", "dataio", "train")}
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = [-1]
        self.op = -1
        self.op_counts = {}
        self.counts = defaultdict(float)
        self._restore = []
        self.missing = []

    # -- span bookkeeping -------------------------------------------------

    def _nid(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.span_end[i] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        """Open the root span of one benchmark op; counters start from zero."""
        self.op = op_id
        self.counts = self.op_counts[op_id] = defaultdict(float)
        return self._open(self._nid("op"))

    def end_op(self, i):
        self._close(i)
        self.op = -1
        self.counts = defaultdict(float)  # work outside an op is not reported

    def _span(self, name, fn):
        nid = self._nid(name)

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- layer-specific wrappers ----------------------------------------

    def _conv(self, fn):
        dense, grouped = self._nid("tensor.conv2d"), self._nid("tensor.conv2d_grouped")

        def conv2d(x, spec, weight, bias=None, tape=None):
            n, c, h, w = x.shape
            ho, wo = spec.out_hw(h, w)
            # computed from shapes: multiply-adds x 2, float64 operands
            flop = 2.0 * spec.c_out * (spec.c_in // spec.g) * spec.k * spec.k * ho * wo * n
            x_b, w_b, y_b = 8.0 * x.data.size, 8.0 * weight.data.size, 8.0 * n * spec.c_out * ho * wo
            cnt = self.counts
            cnt["tensor.conv2d.calls"] += 1
            cnt["tensor.conv2d.flop"] += flop
            cnt["tensor.conv2d.bytes"] += x_b + w_b + y_b
            if tape is not None:  # dX and dW each cost one forward's arithmetic
                cnt["tensor.conv2d.flop"] += 2.0 * flop
                cnt["tensor.conv2d.bytes"] += 2.0 * (x_b + w_b) + y_b
            i = self._open(grouped if spec.g > 1 else dense)
            try:
                return fn(x, spec, weight, bias=bias, tape=tape)
            finally:
                self._close(i)

        conv2d.__wrapped__ = fn
        return conv2d

    def _assign(self, fn):
        inner = self._span("losses.assign", fn)

        def assign_targets(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.counts["losses.positives"] += sum(len(level) for level in out)
            return out

        assign_targets.__wrapped__ = fn
        return assign_targets

    def _nms(self, fn):
        inner = self._span("model.nms", fn)

        def nms_class(cands, *args, **kwargs):
            kept = inner(cands, *args, **kwargs)
            self.counts["model.decode.candidates"] += len(cands)
            self.counts["model.decode.kept"] += len(kept)
            return kept

        nms_class.__wrapped__ = fn
        return nms_class

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _evaluate(self, fn):
        inner = self._span("metrics.evaluate", fn)

        def evaluate(dets, *args, **kwargs):
            # the mF1 sweep visits every distinct confidence once
            self.counts["metrics.mf1_thresholds"] += len({d.confidence for d in dets})
            return inner(dets, *args, **kwargs)

        evaluate.__wrapped__ = fn
        return evaluate

    def _record(self, fn):
        def record(tape, inputs, output, backfn):
            # the recording op is the innermost open span
            top = self.stack[-1]
            kind = self.names[self.span_name[top]] if top >= 0 else "other"
            self.counts["tensor.tape_entries"] += 1
            nid = self._nid(kind + ".bwd")

            def timed_backfn(up):
                i = self._open(nid)
                try:
                    return backfn(up)
                finally:
                    self._close(i)

            return fn(tape, inputs, output, timed_backfn)

        record.__wrapped__ = fn
        return record

    # -- install / remove -----------------------------------------------

    def _replace_everywhere(self, orig, new, only=None):
        prefix = self.pkg.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            if only is not None and mod_name != f"{prefix}.{only}":
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _patch_fn(self, mod, name, make, only=None):
        orig = getattr(self.modules[mod], name, None)
        if orig is None:
            self.missing.append(f"{mod}.{name}")
            return
        self._replace_everywhere(orig, make(orig), only=only)

    def install(self):
        T = self.modules["tensor"]
        self._patch_fn("tensor", "conv2d", self._conv)
        for fname, kind in TENSOR_KINDS.items():
            self._patch_fn("tensor", fname, lambda f, k=kind: self._span(k, f))
        for mod, fname, span in FUNCTION_SPANS:
            self._patch_fn(mod, fname, lambda f, s=span: self._span(s, f))
        self._patch_fn("losses", "assign_targets", self._assign)
        self._patch_fn("model", "_nms_class", self._nms)
        self._patch_fn("metrics", "evaluate", self._evaluate)
        self._patch_fn("metrics", "match", lambda f: self._counter("metrics.match_calls", f))
        self._patch_fn("metrics", "iou", lambda f: self._counter("metrics.iou_calls", f),
                       only="metrics")
        for mod, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(self.modules[mod], cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            orig = vars(cls)[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._span(span, orig))
        orig = T.GradTape.record
        self._restore.append((T.GradTape, "record", orig))
        T.GradTape.record = self._record(orig)

    def remove(self):
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    # -- aggregation ----------------------------------------------------

    def per_op(self, op_ids):
        """Per-op inclusive and self time (s) for each span name, plus counts.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        names = np.asarray(self.span_name, dtype=np.int64)
        start = np.asarray(self.span_start)
        dur = np.asarray(self.span_end) - start
        parent = np.asarray(self.span_parent, dtype=np.int64)
        ops = np.asarray(self.span_op, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child

        top = max(max(op_ids, default=0), int(ops.max()) if len(ops) else 0)
        lookup = np.full(top + 2, -1, dtype=np.int64)
        lookup[np.asarray(op_ids, dtype=np.int64) + 1] = np.arange(len(op_ids))
        pos = lookup[ops + 1]
        keep = pos >= 0
        incl, excl = {}, {}
        for nid, name in enumerate(self.names):
            m = keep & (names == nid)
            incl[name] = np.bincount(pos[m], weights=dur[m], minlength=len(op_ids))
            excl[name] = np.bincount(pos[m], weights=selft[m], minlength=len(op_ids))
        # time covered by the direct children of each op's root span
        is_root = keep & (names == self.name_ids.get("op", -2))
        root_pos = np.where(is_root, pos, -1)
        child_of_root = keep & has_parent
        child_of_root[child_of_root] = root_pos[parent[child_of_root]] >= 0
        covered = np.bincount(root_pos[parent[child_of_root]], weights=dur[child_of_root],
                              minlength=len(op_ids))
        counts = [dict(self.op_counts.get(op, {})) for op in op_ids]
        return incl, excl, covered, counts

    def dump(self, path, meta):
        """Write every span and per-op counter as one JSON document."""
        doc = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "start": list(self.span_start),
                "end": list(self.span_end),
                "parent": list(self.span_parent),
                "op": list(self.span_op),
            },
            "counts": {str(op): dict(c) for op, c in self.op_counts.items()},
            "missing_entry_points": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
