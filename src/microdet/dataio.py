"""File formats and fixtures: tensors, annotations, manifests, config, toy scenes.

Tensor files ("T4v1") are an ASCII header `T4 n c h w` plus little-endian
float64 payload. Annotations are one `class_id cx cy w h` line per object,
normalized. Predictions add a confidence column. Config files are flat
`key = value` text with `#` comments. Everything round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .losses import Box, box_iou
from .metrics import Detection, GroundTruth
from .tensor import DomainError, ShapeError, Tensor4


class AnnotationError(ValueError):
    """Malformed or out-of-range annotation line; carries the line number."""

    def __init__(self, path, line_no, detail):
        self.path = str(path)
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"{path}:{line_no}: {detail}")


# ---------------------------------------------------------------------------
# T4v1 tensors

_MAX_HEADER = 256  # bytes; a valid T4 or W1 header line is far shorter


def _write_t4_record(fh, arr):
    n, c, h, w = arr.shape
    fh.write(f"T4 {n} {c} {h} {w}\n".encode())
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, nbytes, what) -> bytes:
    """Exactly nbytes from a binary file; the size is checked before reading."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < nbytes:
        raise DomainError("read", f"{what} truncated ({max(left, 0)} of {nbytes} bytes)")
    return fh.read(nbytes)


def _read_t4_record(fh, where) -> np.ndarray:
    """One checked T4 record from a binary stream; `where` names it in errors.

    The header must be `T4` plus four integer dims, each >= 1, the payload
    exactly 8 * numel bytes, and every value finite.
    """
    header = fh.readline(_MAX_HEADER)
    parts = header.split()
    try:
        shape = tuple(int(v) for v in parts[1:])
    except ValueError:
        shape = ()
    if parts[:1] != [b"T4"] or len(shape) != 4:
        raise DomainError("t4", f"{where}: bad header {header!r}")
    if min(shape) < 1:
        raise DomainError("t4", f"{where}: dims {shape} must each be >= 1")
    payload = _read_exact(fh, 8 * math.prod(shape), f"{where}: payload")
    arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
    if not np.isfinite(arr).all():
        raise DomainError("t4", f"{where}: payload holds non-finite values")
    return arr


def write_t4(path, tensor):
    arr = tensor.data if isinstance(tensor, Tensor4) else np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeError("t4", f"expected 4 axes, got {arr.ndim}")
    with open(path, "wb") as fh:
        _write_t4_record(fh, arr)


def read_t4(path) -> Tensor4:
    with open(path, "rb") as fh:
        arr = _read_t4_record(fh, path)
        if fh.read(1):
            raise DomainError("t4", f"{path}: bytes after the payload")
    return Tensor4(arr.copy())


# ---------------------------------------------------------------------------
# annotations and predictions


def _read_lines(path):
    """Numbered lines of a UTF-8 text file; a bad byte names its line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise AnnotationError(path, line_no, "not UTF-8 text") from None
    return enumerate(text.splitlines(), 1)


def load_class_names(path):
    """One class name per non-empty line, stripped. A name becomes part of a file
    name (`pr_curve_<name>.csv`), so a repeat, `/` or NUL is an error naming its line."""
    first_line = {}
    for line_no, line in _read_lines(path):
        name = line.strip()
        if name in first_line:
            raise AnnotationError(path, line_no, f"duplicate class name {name!r} "
                                                 f"(first on line {first_line[name]})")
        if "/" in name or "\0" in name:
            raise AnnotationError(path, line_no, f"class name {name!r} holds '/' or a NUL "
                                                 f"byte, so it cannot name a file")
        if name:
            first_line[name] = line_no
    return list(first_line)


def _load_records(path, n_fields, record):
    """One `record(class_id, *extra, box, image_id)` per non-empty line.

    A line holds n_fields numbers: an integer class id >= 0, then floats in
    [0, 1] that end with the box `cx cy w h`; w and h must be positive.
    """
    path = Path(path)
    image_id = path.stem
    out = []
    for line_no, line in _read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != n_fields:
            raise AnnotationError(path, line_no, f"expected {n_fields} fields, got {len(parts)}")
        try:
            cls = int(parts[0])
            vals = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise AnnotationError(path, line_no, f"unparsable number: {exc}") from None
        if cls < 0:
            raise AnnotationError(path, line_no, f"negative class id {cls}")
        for v in vals:
            if not 0.0 <= v <= 1.0:
                raise AnnotationError(path, line_no, f"value {v} outside [0, 1]")
        *extra, cx, cy, w, h = vals
        if w <= 0 or h <= 0:
            raise AnnotationError(path, line_no, f"degenerate box w={w}, h={h}")
        out.append(record(cls, *extra, Box(cx, cy, w, h), image_id))
    return out


def _save_records(path, rows):
    """One line per row: the class id, then every value at full precision."""
    lines = [" ".join([str(cls), *(f"{v:.17g}" for v in vals)]) for cls, *vals in rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_annotations(path) -> list[GroundTruth]:
    """`class_id cx cy w h` per line, all normalized; empty file = no objects."""
    return _load_records(path, 5, GroundTruth)


def save_annotations(path, gts):
    _save_records(path, ((g.class_id, g.box.cx, g.box.cy, g.box.w, g.box.h) for g in gts))


def load_predictions(path) -> list[Detection]:
    """`class_id confidence cx cy w h` per line."""
    return _load_records(path, 6, Detection)


def save_predictions(path, dets):
    _save_records(path, ((d.class_id, d.confidence, d.box.cx, d.box.cy, d.box.w, d.box.h)
                         for d in dets))


# ---------------------------------------------------------------------------
# config files


def _config_lines(path, repeatable=()):
    """(line_no, key, value) per `key = value` line; `#` starts a comment.

    A key given twice is an error naming the second line, unless it is one
    of `repeatable`.
    """
    first_line = {}
    for line_no, line in _read_lines(path):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise AnnotationError(path, line_no, f"expected key = value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in first_line and key not in repeatable:
            raise AnnotationError(path, line_no, f"duplicate key {key!r} "
                                                 f"(first set on line {first_line[key]})")
        first_line.setdefault(key, line_no)
        yield line_no, key, value


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_value(text, default):
    """`text` as the type of a field's default: bool, int, float or str."""
    if isinstance(default, bool):
        if text.lower() not in _TRUE + _FALSE:
            raise ValueError(f"{text!r} is not a boolean ({'/'.join(_TRUE + _FALSE)})")
        return text.lower() in _TRUE
    value = type(default)(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def load_config(path, *kinds):
    """One instance per dataclass kind, fields set from a `key = value` file.

    Each field's type comes from its default; no path gives the defaults.
    A key no kind declares, or a value that does not parse, raises
    AnnotationError naming the line.
    """
    declared = {f.name: (kind, f.default) for kind in kinds for f in dataclasses.fields(kind)}
    values = {kind: {} for kind in kinds}
    for line_no, key, text in _config_lines(path) if path else ():
        if key not in declared:
            raise AnnotationError(path, line_no, f"unknown key {key!r}")
        kind, default = declared[key]
        try:
            values[kind][key] = _parse_value(text, default)
        except ValueError as exc:
            raise AnnotationError(path, line_no, f"{key}: {exc}") from None
    return tuple(kind(**values[kind]) for kind in kinds)


def write_config(path, *instances):
    """Every field `load_config` can set, in dataclass field order."""
    lines = []
    for inst in instances:
        for f in dataclasses.fields(inst):
            value = getattr(inst, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# dataset manifest


@dataclass
class DatasetManifest:
    classes: list[str]
    entries: list[tuple[str, str]]  # (image tensor path, annotation path)
    root: Path = field(default_factory=Path)
    # entry index -> its parsed annotation file; each file is read once
    _gts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def validate(self):
        for img, ann in self.entries:
            for p in (self.root / img, self.root / ann):
                if not p.exists():
                    raise DomainError("manifest", f"referenced file missing: {p}")
        for idx, (_, ann) in enumerate(self.entries):
            for g in self.load_gts(idx):
                if g.class_id >= len(self.classes):
                    raise DomainError(
                        "manifest",
                        f"{ann}: class id {g.class_id} >= class count {len(self.classes)}",
                    )

    def load_image(self, idx) -> Tensor4:
        return read_t4(self.root / self.entries[idx][0])

    def load_gts(self, idx) -> list[GroundTruth]:
        """The ground truths of entry idx, parsed on first use; a fresh list per call."""
        if idx not in self._gts:
            self._gts[idx] = load_annotations(self.root / self.entries[idx][1])
        return list(self._gts[idx])


def save_manifest(path, manifest: DatasetManifest):
    lines = [f"classes = {','.join(manifest.classes)}"]
    lines += [f"image = {img} {ann}" for img, ann in manifest.entries]
    Path(path).write_text("\n".join(lines) + "\n")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    classes, entries = [], []
    for line_no, key, value in _config_lines(path, repeatable=("image",)):
        if key == "classes":
            classes = [c.strip() for c in value.split(",") if c.strip()]
        elif key == "image":
            parts = value.split()
            if len(parts) != 2:
                raise AnnotationError(path, line_no, "image line needs <tensor> <annotation>")
            entries.append((parts[0], parts[1]))
        else:
            raise AnnotationError(path, line_no, f"unknown manifest key {key!r}")
    if not classes:
        raise DomainError("manifest", f"{path}: no classes declared")
    manifest = DatasetManifest(classes, entries, root=path.parent)
    manifest.validate()
    return manifest


# ---------------------------------------------------------------------------
# synthetic scenes

_PALETTE = np.array([
    [0.95, 0.25, 0.20],
    [0.20, 0.35, 0.95],
    [0.20, 0.90, 0.30],
    [0.95, 0.85, 0.20],
    [0.85, 0.25, 0.90],
    [0.25, 0.90, 0.90],
])


# the shortest and longest side a toy object can have, in pixels
TOY_MIN_SIZE = 14
TOY_MAX_SIZE = 30


def generate_toy_scene(seed, image_size=64, num_classes=2, num_objects=2):
    """Noise background plus colored rectangles; annotations are exact.

    Rectangles land on integer pixel bounds and the emitted normalized box
    is computed from those same bounds, so a rasterization round trip agrees
    within one pixel by construction. Deterministic per seed.
    """
    if TOY_MAX_SIZE + 4 >= image_size:
        raise DomainError("toy_scene", f"objects up to {TOY_MAX_SIZE}px cannot fit "
                                       f"with margin in a {image_size}px image")
    rng = np.random.default_rng(seed)
    img = 0.25 + 0.08 * rng.random((1, 3, image_size, image_size))
    gts = []
    placed = []
    attempts = 0
    while len(gts) < num_objects:
        attempts += 1
        if attempts > 200 * num_objects:
            raise DomainError("toy_scene", f"could not pack {num_objects} objects "
                                           f"after {attempts} attempts")
        w = int(rng.integers(TOY_MIN_SIZE, TOY_MAX_SIZE + 1))
        h = int(rng.integers(TOY_MIN_SIZE, TOY_MAX_SIZE + 1))
        x0 = int(rng.integers(2, image_size - w - 1))
        y0 = int(rng.integers(2, image_size - h - 1))
        box = Box((x0 + w / 2) / image_size, (y0 + h / 2) / image_size,
                  w / image_size, h / image_size)
        if (box_iou(np.array([box.corners()]), np.array(placed).reshape(-1, 4)) > 0.1).any():
            continue
        cls = int(rng.integers(num_classes))
        color = _PALETTE[cls % len(_PALETTE)] * (1.0 - 0.3 * (cls // len(_PALETTE)))
        patch = np.tile(color.reshape(3, 1, 1), (1, h, w)).copy()
        if cls % 2 == 1:  # stripe texture so odd classes differ by more than hue
            patch[:, ::4, :] *= 0.65
        patch += 0.02 * rng.standard_normal((3, h, w))
        img[0, :, y0:y0 + h, x0:x0 + w] = patch
        placed.append(box.corners())
        gts.append(GroundTruth(cls, box, "0"))
    np.clip(img, 0.0, 1.0, out=img)
    return Tensor4(img), gts


@dataclass(frozen=True)
class ToyData:
    """Config keys for the synthetic training set that `train-toy` writes (64 px scenes)."""

    toy_images: int = 20
    min_objects: int = 1
    max_objects: int = 3


def generate_toy_dataset(out_dir, seed=0, n_images=20, image_size=64, num_classes=2,
                         min_objects=1, max_objects=3):
    """Write images, labels, classes and a manifest; returns the manifest path.

    Each image holds between min_objects and max_objects objects, both
    inclusive. Every scene is built before the first directory is made, so
    a count that cannot be packed leaves nothing behind.
    """
    if n_images < 1 or num_classes < 1:
        raise DomainError("toy_data", f"need at least one image and one class, got "
                                      f"{n_images} image(s) and {num_classes} class(es)")
    if not 0 <= min_objects <= max_objects:
        raise DomainError("toy_data", f"need 0 <= min_objects <= max_objects, got "
                                      f"{min_objects} and {max_objects}")
    if seed < 0:
        raise DomainError("toy_data", f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(n_images):
        n_obj = int(rng.integers(min_objects, max_objects + 1))
        scene_seed = int(rng.integers(0, 2**31 - 1))
        scenes.append(generate_toy_scene(scene_seed, image_size, num_classes, n_obj))
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (img, gts) in enumerate(scenes):
        stem = f"img_{i:03d}"
        write_t4(out_dir / "images" / f"{stem}.t4", img)
        save_annotations(out_dir / "labels" / f"{stem}.txt",
                         [GroundTruth(g.class_id, g.box, stem) for g in gts])
        entries.append((f"images/{stem}.t4", f"labels/{stem}.txt"))
    classes = [f"class{i}" for i in range(num_classes)]
    manifest = DatasetManifest(classes, entries, root=out_dir)
    save_manifest(out_dir / "manifest.txt", manifest)
    return out_dir / "manifest.txt"
