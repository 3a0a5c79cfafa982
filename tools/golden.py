"""Golden hashes of the CLI's deterministic outputs, for before/after checks.

Each step runs `python -m microdet.cli` in a fresh process against the
sources under ROOT/src, inside a temporary directory:

    weights     SHA-256 of `weights.w1` from `train-toy` on a fixed config
    weights_crowded
                the same with 4-6 objects per image, so that ground truths
                contest cells of the assigner
    detections  SHA-256 of the `forward` detections on one training image
    selftest    SHA-256 of `selftest` stdout
    gradcheck   SHA-256 of `gradcheck` stdout
    eval        SHA-256 of `eval --out ev` stdout plus every file under ev/
                (name, then bytes, in name order), on a fixed two-class
                corpus with tied confidences and one image whose
                ground-truth file is empty
    droi        SHA-256 of `droi-replay` stdout on a fixed trajectory with
                straight, moderate and sharp samples of both signs, with
                the default config and then with `deadband = false`
    bench       SHA-256 of `bench` stdout: the block table and the model
                parameter totals

Run it on two checkouts and compare the lines: a change that keeps these
outputs bit-identical prints the same eight hashes. With `--expect FILE`, a
saved output of an earlier run, it prints the rows, then each differing
name with the expected and the actual digest, and exits 1 on a mismatch.

    python tools/golden.py [--root DIR] > golden.txt
    python tools/golden.py --expect golden.txt

`tests/golden.txt` holds the current rows; `tests/test_golden.py` checks
them at the default BLAS thread count and with OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_CFG = "num_classes = 2\nsteps = 8\nseed = 5\ntoy_images = 4\n"
CROWDED_CFG = TRAIN_CFG + "min_objects = 4\nmax_objects = 6\n"
# a zero threshold sends every cell through decode and NMS
FORWARD_CFG = "num_classes = 2\nconf_threshold = 0.0\n"
TRAJECTORY = ("t,theta_deg,speed_mps\n0,0,0\n0.1,12.5,4\n0.2,-25,6.5\n0.3,45,10\n"
              "0.4,-55,12\n0.5,75,8\n0.6,-80,3\n0.7,120,0.5\n0.8,-200,15\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_eval_corpus(work: Path):
    """Six images of two classes; confidences come from a four-value set, so
    many tie. The last image has detections but an empty ground-truth file."""
    rng = random.Random(0)
    (work / "classes.txt").write_text("class0\nclass1\n")
    for d in ("gt", "pred"):
        (work / d).mkdir()
    for i in range(6):
        gts, dets = [], []
        for _ in range(rng.randint(1, 3) if i < 5 else 0):
            cls = rng.randrange(2)
            box = [rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                   rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)]
            gts.append([cls, *box])
            if rng.random() < 0.8:
                jit = [v + rng.uniform(-0.03, 0.03) for v in box]
                dets.append([cls if rng.random() < 0.9 else 1 - cls,
                             rng.choice([0.3, 0.5, 0.7, 0.9]), *jit])
        for _ in range(rng.randint(1, 3)):
            dets.append([rng.randrange(2), rng.choice([0.3, 0.5, 0.7, 0.9]),
                         rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                         rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2)])
        for d, rows in (("gt", gts), ("pred", dets)):
            text = "".join(f"{r[0]} " + " ".join(f"{v:.6f}" for v in r[1:]) + "\n"
                           for r in rows)
            (work / d / f"img_{i}.txt").write_text(text)


def _cli(root: Path, work: Path, *argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("APD_SEED", None)  # older checkouts let this variable override the seed
    proc = subprocess.run([sys.executable, "-m", "microdet.cli", *argv], cwd=work,
                          env=env, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"error: microdet {' '.join(argv)} exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def golden(root: Path):
    """(name, hex digest) rows for the eight outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "train.cfg").write_text(TRAIN_CFG)
        (work / "crowded.cfg").write_text(CROWDED_CFG)
        (work / "forward.cfg").write_text(FORWARD_CFG)
        _cli(root, work, "train-toy", "--config", "train.cfg", "--out", "run")
        _cli(root, work, "train-toy", "--config", "crowded.cfg", "--out", "crowded")
        _cli(root, work, "forward", "--weights", "run/weights.w1",
             "--input", "run/data/images/img_000.t4", "--config", "forward.cfg",
             "--out", "dets.txt")
        _write_eval_corpus(work)
        report = _cli(root, work, "eval", "--gt", "gt", "--pred", "pred",
                      "--classes", "classes.txt", "--out", "ev")
        for path in sorted((work / "ev").iterdir()):
            report += path.name.encode() + b"\n" + path.read_bytes()
        (work / "traj.csv").write_text(TRAJECTORY)
        (work / "verbatim.cfg").write_text("deadband = false\n")
        replays = _cli(root, work, "droi-replay", "--log", "traj.csv")
        replays += _cli(root, work, "droi-replay", "--log", "traj.csv",
                        "--config", "verbatim.cfg")
        return [
            ("weights", _sha((work / "run" / "weights.w1").read_bytes())),
            ("weights_crowded", _sha((work / "crowded" / "weights.w1").read_bytes())),
            ("detections", _sha((work / "dets.txt").read_bytes())),
            ("selftest", _sha(_cli(root, work, "selftest"))),
            ("gradcheck", _sha(_cli(root, work, "gradcheck"))),
            ("eval", _sha(report)),
            ("droi", _sha(replays)),
            ("bench", _sha(_cli(root, work, "bench"))),
        ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is hashed (default: this one)")
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="saved output to compare with; exit 1 on any difference")
    args = parser.parse_args()
    expected = None
    if args.expect is not None:
        try:
            lines = args.expect.read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            sys.exit(f"error: cannot read {args.expect}: {exc}")
        expected = dict(line.split(" ", 1) for line in lines if " " in line)
    rows = golden(args.root.resolve())
    for name, digest in rows:
        print(f"{name} {digest}")
    if expected is None:
        return 0
    differ = [(name, expected.get(name, "(missing)"), digest)
              for name, digest in rows if expected.get(name) != digest]
    for name, want, got in differ:
        print(f"differs: {name} expected {want} got {got}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
