"""The benchmark's tracer finds every entry point it wraps.

`perfbench/tracer.py` wraps named functions and methods of the package at run
time. A renamed or removed one would otherwise show only as `correct: false`
in a traced benchmark run, and a changed contract only as a wrong per-layer
number.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import microdet
from microdet.losses import Box, LossWeights
from microdet.metrics import GroundTruth
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
    preds = RawPredictions(levels)
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


def test_tracer_counts_one_positive_per_alpha():
    """`losses.positives` reads the assigner's per-level row counts: one per alpha.

    An assigner returning a tuple of index arrays per level would count 4 a level.
    """
    rng = np.random.default_rng(0)
    levels = [LevelPreds(Tensor4(rng.normal(size=(2, 2, 64 // s, 64 // s))),
                         Tensor4(rng.normal(size=(2, 32, 64 // s, 64 // s))), s)
              for s in (8, 16, 32)]
    preds = RawPredictions(levels)
    # the 58 px box goes to stride 16, the others to stride 8
    gts = [[GroundTruth(0, Box(0.3, 0.3, 0.3, 0.25)), GroundTruth(1, Box(0.5, 0.5, 0.9, 0.9))],
           [GroundTruth(1, Box(0.7, 0.6, 0.2, 0.3))]]
    tracer = load_tracer_module().Tracer(microdet)
    tracer.install()
    try:
        span = tracer.begin_op(0)
        alphas = microdet.losses.loss_and_grads(preds, gts, LossWeights())[3]
        tracer.end_op(span)
    finally:
        tracer.remove()
    assert tracer.op_counts[0]["losses.positives"] == alphas.size > 0


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


@pytest.mark.parametrize("workload", ["train", "infer", "eval"])
def test_traced_run_is_correct(workload, tmp_path):
    """A short traced benchmark run ends `correct: true` with no problems.

    The traced run checks its outputs bit for bit against untraced passes and
    requires the spans to cover the op's wall time, so a change that breaks
    either fails here. The benchmark writes next to its own directory, so it
    runs from a copy that reads this checkout's sources.
    """
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(PERFBENCH.parent / "src")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[len("info "):])
    assert info["problems"] == []
    assert json.loads(lines[-1])["correct"] is True
