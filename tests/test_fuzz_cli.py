"""Seeded byte mutations of every file the CLI reads.

Each input starts from a valid file; every case mutates one byte (replace,
insert or delete) or cuts the file short, then calls `cli.main` in-process.
The run must exit 0, or exit 1 with exactly one `error:` line and no
`--out` left behind. Any other exception fails the test with its traceback.
Half of the mutations land in the first 64 bytes, where the headers, keys
and first records are.

The train config keeps its first line, `steps = 1`, out of reach: a config
that loses it is valid and trains the default 600 steps, which takes minutes.
"""

import shutil

import numpy as np
import pytest

from microdet.cli import main
from microdet.dataio import ToyData, write_config, write_t4
from microdet.droi import DroiConfig
from microdet.model import ModelConfig, build_model, save_weights
from microdet.train import TrainParams

CASES = 40
# bytes that precede the mutated part of an input
FIXED = {"train.cfg": b"steps = 1\n"}


def mutate(data, rng):
    """data with one byte replaced, inserted or deleted, or cut at some offset."""
    pos = int(rng.integers(min(len(data), 64) if rng.random() < 0.5 else len(data)))
    op = rng.integers(4)
    byte = bytes([int(rng.integers(256))])
    if op == 0:
        return data[:pos] + byte + data[pos + 1:]
    if op == 1:
        return data[:pos] + byte + data[pos:]
    if op == 2:
        return data[:pos] + data[pos + 1:]
    return data[:pos]


def write_inputs(root):
    """A valid copy of every input file under root; returns {name: path}."""
    paths = {name: root / name for name in (
        "weights.w1", "image.t4", "model.cfg", "train.cfg", "droi.cfg", "traj.csv",
        "classes.txt", "gt/a.txt", "pred/a.txt")}
    (root / "gt").mkdir()
    (root / "pred").mkdir()
    save_weights(build_model(ModelConfig(), 0), paths["weights.w1"])
    write_t4(paths["image.t4"], np.random.default_rng(0).uniform(size=(1, 3, 64, 64)))
    write_config(paths["model.cfg"], ModelConfig(), TrainParams(), ToyData())
    paths["train.cfg"].write_text("steps = 1\nnum_classes = 2\nseed = 5\ntoy_images = 1\n")
    write_config(paths["droi.cfg"], DroiConfig())
    paths["traj.csv"].write_text("t,theta_deg,speed_mps\n0,0,5\n0.1,45,7.5\n0.2,-70,9\n")
    paths["classes.txt"].write_text("car\nped\n")
    paths["gt/a.txt"].write_text("0 0.5 0.5 0.2 0.2\n1 0.25 0.3 0.1 0.3\n")
    paths["pred/a.txt"].write_text("0 0.9 0.52 0.5 0.2 0.2\n1 0.4 0.7 0.7 0.1 0.1\n"
                                   "1 0.8 0.26 0.3 0.1 0.28\n")
    return paths


def argv_for(name, p, out):
    """The command that reads input `name`, writing to out."""
    forward = ["forward", "--weights", str(p["weights.w1"]), "--input", str(p["image.t4"]),
               "--config", str(p["model.cfg"]), "--out", str(out)]
    evaluate = ["eval", "--gt", str(p["gt/a.txt"].parent), "--pred", str(p["pred/a.txt"].parent),
                "--classes", str(p["classes.txt"]), "--out", str(out)]
    replay = ["droi-replay", "--log", str(p["traj.csv"]), "--config", str(p["droi.cfg"]),
              "--out", str(out)]
    return {
        "weights.w1": forward, "image.t4": forward, "model.cfg": forward,
        "train.cfg": ["train-toy", "--config", str(p["train.cfg"]), "--out", str(out)],
        "droi.cfg": replay, "traj.csv": replay,
        "classes.txt": evaluate, "gt/a.txt": evaluate, "pred/a.txt": evaluate,
    }[name]


@pytest.mark.parametrize("name", ["weights.w1", "image.t4", "model.cfg", "train.cfg",
                                  "droi.cfg", "traj.csv", "classes.txt", "gt/a.txt",
                                  "pred/a.txt"])
def test_mutated_input(tmp_path, capsys, name):
    paths = write_inputs(tmp_path)
    fixed = FIXED.get(name, b"")
    original = paths[name].read_bytes()[len(fixed):]
    rng = np.random.default_rng(sum(name.encode()))
    out = tmp_path / "out"
    argv = argv_for(name, paths, out)
    for case in range(CASES):
        data = fixed + mutate(original, rng)
        paths[name].write_bytes(data)
        code = main(argv)
        err = capsys.readouterr().err
        what = (name, case, data[:80])
        if code == 0:
            assert err == "", what
            assert out.exists(), what
        else:
            assert code == 1, what
            assert err.startswith("error: ") and err.count("\n") == 1, (*what, err)
            assert not out.exists(), (*what, err)
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
