"""Golden hashes of the CLI's deterministic outputs, for before/after checks.

Each step runs `python -m microdet.cli` in a fresh process against the
sources under ROOT/src, inside a temporary directory:

    weights     SHA-256 of `weights.w1` from `train-toy` on a fixed config
    detections  SHA-256 of the `forward` detections on one training image
    selftest    SHA-256 of `selftest` stdout
    gradcheck   SHA-256 of `gradcheck --module all` stdout

Run it on two checkouts and compare the lines: a change that keeps these
outputs bit-identical prints the same four hashes. With `--expect FILE`, a
saved output of an earlier run, it prints the rows, then each differing
name with the expected and the actual digest, and exits 1 on a mismatch.

    python tools/golden.py [--root DIR] > golden.txt
    python tools/golden.py --expect golden.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_CFG = "num_classes = 2\nsteps = 8\nseed = 5\ntoy_images = 4\n"
# a zero threshold sends every cell through decode and NMS
FORWARD_CFG = "num_classes = 2\nconf_threshold = 0.0\n"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(root: Path, work: Path, *argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("APD_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "microdet.cli", *argv], cwd=work,
                          env=env, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"error: microdet {' '.join(argv)} exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def golden(root: Path):
    """(name, hex digest) rows for the four outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "train.cfg").write_text(TRAIN_CFG)
        (work / "forward.cfg").write_text(FORWARD_CFG)
        _cli(root, work, "train-toy", "--config", "train.cfg", "--out", "run")
        _cli(root, work, "forward", "--weights", "run/weights.w1",
             "--input", "run/data/images/img_000.t4", "--config", "forward.cfg",
             "--out", "dets.txt")
        return [
            ("weights", _sha((work / "run" / "weights.w1").read_bytes())),
            ("detections", _sha((work / "dets.txt").read_bytes())),
            ("selftest", _sha(_cli(root, work, "selftest"))),
            ("gradcheck", _sha(_cli(root, work, "gradcheck", "--module", "all"))),
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
