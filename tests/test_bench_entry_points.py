"""The benchmark's tracer finds every entry point it wraps.

`perfbench/tracer.py` wraps named functions and methods of the package at run
time. A renamed or removed one would otherwise show only as `correct: false`
in a traced benchmark run, and a changed contract only as a wrong per-layer
number.
"""

import importlib.util
from pathlib import Path

import numpy as np

import microdet
from microdet.model import LevelPreds, ModelConfig, RawPredictions
from microdet.tensor import Tensor4

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# forward tensor ops of one batch-1 64 px inference with batchnorm folded into
# every SimConv: 226 with conv -> batchnorm, less the 54 batchnorm calls
INFER_OPS_PER_IMAGE = 172


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer_module():
    return _load("tracer")


def test_tracer_finds_every_entry_point():
    tracer = load_tracer_module().Tracer(microdet)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()


def test_tracer_counts_every_decode_candidate():
    """At conf_threshold 0 every (cell, class) reaches NMS: 84 cells x 2 classes at 64 px."""
    levels = [LevelPreds(Tensor4(np.full((1, 2, 64 // s, 64 // s), -40.0)),
                         Tensor4(np.zeros((1, 32, 64 // s, 64 // s))), s) for s in (8, 16, 32)]
    preds = RawPredictions(levels, 2, 8)
    tracer = load_tracer_module().Tracer(microdet)
    tracer.install()
    try:
        span = tracer.begin_op(0)
        dets = microdet.model.decode(preds, ModelConfig(conf_threshold=0.0))
        tracer.end_op(span)
    finally:
        tracer.remove()
    counts = tracer.op_counts[0]
    assert counts["model.decode.candidates"] == 168
    assert counts["model.decode.kept"] == len(dets) > 0


def test_infer_op_runs_folded_convs(tmp_path):
    """One traced `infer` op records no batchnorm and the folded op count.

    A silent fall-back to conv -> batchnorm at inference would show here.
    """
    tracer_mod = load_tracer_module()
    wl = _load("workloads").Infer(1, tmp_path)
    wl.setup()
    tracer = tracer_mod.Tracer(microdet)
    tracer.install()
    try:
        span = tracer.begin_op(0)
        out = wl.op(0)
        tracer.end_op(span)
    finally:
        tracer.remove()
    assert wl.check(0, out)
    counts = tracer.op_counts[0]
    assert tracer.name_ids["tensor.batchnorm2d"] not in tracer.span_name
    assert counts.get("tensor.batchnorm2d.calls", 0) == 0
    # the forward op kinds perfbench/layers.py sums into tensor.ops_per_image
    kinds = ("tensor.conv2d", "activations", "simam", *set(tracer_mod.TENSOR_KINDS.values()))
    ops = sum(counts.get(k + ".calls", 0) for k in kinds) / wl.items_per_op
    assert ops == INFER_OPS_PER_IMAGE
