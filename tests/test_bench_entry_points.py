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

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
