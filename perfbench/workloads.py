"""The three benchmark workloads: `train`, `infer` and `eval`.

Each workload builds its inputs from the seed alone, under a work directory
inside the checkout, and exposes:

- `setup()`: generate data, build the model, warm up; called several times
  so that set-up time can be reported as a median;
- `reset()`: return mutable state (weights, moments) to its post-set-up value,
  so that a traced pass replays exactly the ops of an untraced one;
- `op(i)`: one timed operation; `check(i, out)`: its output check;
- `finish()`: checks that need the whole run; `fingerprint(out)`: an
  exact, comparable form of one op's output.

Calls into the package go through module attributes (`M.decode`, not a
name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import shutil

import numpy as np

from microdet import dataio as D
from microdet import losses as L
from microdet import metrics as MET
from microdet import model as M
from microdet import tensor as T
from microdet import train as TR

N_IMAGES = 20
IMAGE_SIZE = 64
# Two objects per image: the loss loops over positive cells, and a varying
# object count would make the work per step vary from seed to seed.
OBJECTS_PER_IMAGE = 2
MODEL_SEED = 0


def _load_toy_set(data_dir):
    """Images and ground truths of a generated toy set, read back from disk."""
    manifest = D.load_manifest(data_dir / "manifest.txt")
    images = [manifest.load_image(i) for i in range(len(manifest.entries))]
    gts = [manifest.load_gts(i) for i in range(len(manifest.entries))]
    return images, gts


def _write_toy_set(data_dir, seed):
    D.generate_toy_dataset(_fresh_dir(data_dir), seed=seed, n_images=N_IMAGES,
                           image_size=IMAGE_SIZE, min_objects=OBJECTS_PER_IMAGE,
                           max_objects=OBJECTS_PER_IMAGE)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Train:
    """Full-batch AdamW steps at batch 20 on 64 px toy images."""

    name = "train"

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.data_dir = work_dir / "toy"
        self.cfg = M.ModelConfig()
        self.params = TR.TrainParams()
        self.weights = self.params.loss_weights()

    def load(self):
        images, self.gts = _load_toy_set(self.data_dir)
        self.batch = T.Tensor4(np.concatenate([im.data for im in images], axis=0))
        self.items_per_op = self.batch.shape[0]

    def setup(self):
        _write_toy_set(self.data_dir, self.seed)
        self.load()
        self.reset()

    def reset(self):
        model = M.build_model(self.cfg, MODEL_SEED)
        model.set_training(True, track_stats=True)
        p = self.params
        self.state = TR.TrainState(model=model, seed=MODEL_SEED,
                                   schedule=TR.LrSchedule(p.lr, p.steps, p.warmup_steps,
                                                          p.lr_final_frac))
        self.state.init_moments()
        self.totals = []
        # warm-up: one forward, loss and backward; no parameter update
        tape = T.GradTape()
        L.detection_loss(model.forward(self.batch, tape), self.gts, self.weights, tape)
        T.backward(tape)

    def op(self, i):
        tape = T.GradTape()
        preds = self.state.model.forward(self.batch, tape)
        _, breakdown = L.detection_loss(preds, self.gts, self.weights, tape)
        T.backward(tape)
        TR.adamw_step(self.state, self.params)
        return breakdown

    def check(self, i, out):
        self.totals.append(out["total"])
        return all(math.isfinite(out[k]) for k in ("cls", "box", "dfl", "total"))

    def finish(self):
        """The loss must fall over the run; the trajectory hash is reported."""
        totals = np.array(self.totals)
        info = {
            "steps": len(totals),
            "loss_first": float(totals[0]),
            "loss_last": float(totals[-1]),
            "loss_sha256_first16": hashlib.sha256(totals[:16].tobytes()).hexdigest()[:16],
            "loss_sha256_all": hashlib.sha256(totals.tobytes()).hexdigest()[:16],
        }
        return len(totals) > 1 and totals[-1] < totals[0], info

    def fingerprint(self, out):
        return tuple(out[k] for k in ("cls", "box", "dfl", "total"))

    def final_state(self):
        """Bytes of every parameter after the run, for traced-vs-untraced checks."""
        h = hashlib.sha256()
        for _, p in self.state.model.named_params():
            h.update(p.data.tobytes())
        return h.hexdigest()


class Infer:
    """One client, batch-1 64 px requests: forward then decode, no tape."""

    name = "infer"
    items_per_op = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.data_dir = work_dir / "toy"
        # conf_threshold 0: decode and NMS see every cell
        self.cfg = M.ModelConfig(conf_threshold=0.0)

    def load(self):
        self.images, _ = _load_toy_set(self.data_dir)

    def setup(self):
        _write_toy_set(self.data_dir, self.seed)
        self.load()
        self.model = M.build_model(self.cfg, MODEL_SEED)
        self.model.set_inference()
        # the reference decode of every image doubles as the warm-up
        self.reference = [self.op(i) for i in range(len(self.images))]

    def reset(self):
        pass  # inference mutates nothing

    def op(self, i):
        return M.decode(self.model.forward(self.images[i % len(self.images)]), self.cfg)

    def check(self, i, out):
        return out == self.reference[i % len(self.images)]

    def finish(self):
        return True, {"detections_per_request":
                      sum(map(len, self.reference)) / len(self.reference)}

    def fingerprint(self, out):
        return tuple((d.class_id, d.confidence, d.box, d.image_id) for d in out)

    def final_state(self):
        return None


class Eval:
    """Offline evaluation over generated ground-truth and prediction files."""

    name = "eval"
    N_IMAGES = 40
    GTS_PER_IMAGE = 2
    N_DETECTIONS = 300
    CLASSES = ["class0", "class1"]

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.dir = work_dir / "eval"
        self.items_per_op = self.N_DETECTIONS

    def _write_corpus(self):
        """Jittered true boxes plus false positives over both classes.

        The detection count and the ground truths per image are fixed, so
        the quadratic matching work does not vary with the seed. Every value
        lies in [0, 1] and every box is non-degenerate, so the parsers accept
        each line.
        """
        rng = np.random.default_rng(self.seed)
        gt_dir = _fresh_dir(self.dir / "gt")
        pred_dir = _fresh_dir(self.dir / "pred")
        nc = len(self.CLASSES)

        def rand_box():
            w, h = (float(v) for v in rng.uniform(0.05, 0.4, size=2))
            return L.Box(float(rng.uniform(w / 2, 1 - w / 2)),
                         float(rng.uniform(h / 2, 1 - h / 2)), w, h)

        gts = {i: [] for i in range(self.N_IMAGES)}
        dets = {i: [] for i in range(self.N_IMAGES)}
        for i in range(self.N_IMAGES):
            stem = f"img_{i:03d}"
            for _ in range(self.GTS_PER_IMAGE):
                gts[i].append(MET.GroundTruth(int(rng.integers(nc)), rand_box(), stem))
            for gt in gts[i]:
                if rng.random() < 0.8:
                    b = gt.box
                    w = float(np.clip(b.w * np.exp(rng.normal(0, 0.15)), 0.02, 0.9))
                    h = float(np.clip(b.h * np.exp(rng.normal(0, 0.15)), 0.02, 0.9))
                    cx = float(np.clip(b.cx + rng.normal(0, 0.1 * b.w), w / 2, 1 - w / 2))
                    cy = float(np.clip(b.cy + rng.normal(0, 0.1 * b.h), h / 2, 1 - h / 2))
                    cls = gt.class_id if rng.random() < 0.9 else (gt.class_id + 1) % nc
                    dets[i].append(MET.Detection(cls, float(rng.uniform(0.3, 1.0)),
                                                 L.Box(cx, cy, w, h), stem))
        n_true = sum(len(v) for v in dets.values())
        for _ in range(self.N_DETECTIONS - n_true):
            i = int(rng.integers(self.N_IMAGES))
            dets[i].append(MET.Detection(int(rng.integers(nc)), float(rng.uniform(0.0, 0.7)),
                                         rand_box(), f"img_{i:03d}"))
        for i in range(self.N_IMAGES):
            D.save_annotations(gt_dir / f"img_{i:03d}.txt", gts[i])
            D.save_predictions(pred_dir / f"img_{i:03d}.txt", dets[i])

    def load(self):
        pass  # the files are parsed inside every op

    def setup(self):
        self._write_corpus()
        self.reference = self.fingerprint(self.op(-1))

    def reset(self):
        pass

    def op(self, i):
        """What `microdet eval --all-thresholds` computes, minus the printing."""
        gts, dets = [], []
        pred_dir = self.dir / "pred"
        for gt_file in sorted((self.dir / "gt").glob("*.txt")):
            gts.extend(D.load_annotations(gt_file))
            pred_file = pred_dir / gt_file.name
            if pred_file.exists():
                dets.extend(D.load_predictions(pred_file))
        return MET.evaluate(dets, gts, self.CLASSES,
                            iou_thresholds=list(MET.DEFAULT_IOU_THRESHOLDS))

    def check(self, i, out):
        return self.fingerprint(out) == self.reference

    def finish(self):
        return True, {"map50_95": self.reference[1], "mf1": self.reference[2]}

    def fingerprint(self, report):
        return (
            report.map50, report.map50_95, report.mf1, report.mf1_confidence,
            tuple(sorted(report.ap.items())),
            tuple(sorted((c, tuple(sorted(s.items()))) for c, s in report.per_class.items())),
            report.confusion_raw.tobytes(), report.confusion_normalized.tobytes(),
            tuple(report.supported_classes),
        )

    def final_state(self):
        return None


WORKLOADS = {w.name: w for w in (Train, Infer, Eval)}
