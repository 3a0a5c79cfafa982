"""File formats, manifests, and the synthetic scene generator."""

import argparse
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from microdet.cli import build_parser
from microdet.dataio import (
    AnnotationError,
    DatasetManifest,
    ToyData,
    generate_toy_dataset,
    generate_toy_scene,
    load_annotations,
    load_config,
    load_manifest,
    load_predictions,
    read_t4,
    save_annotations,
    save_manifest,
    save_predictions,
    write_config,
    write_t4,
)
from microdet.droi import DroiConfig
from microdet.losses import Box
from microdet.metrics import Detection, GroundTruth
from microdet.model import ModelConfig
from microdet.tensor import DomainError, Tensor4
from microdet.train import TrainParams


class TestT4:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = Tensor4(rng.normal(size=(2, 3, 4, 5)))
        path = tmp_path / "x.t4"
        write_t4(path, t)
        back = read_t4(path)
        assert np.array_equal(back.data, t.data)

    def test_header_format(self, tmp_path):
        path = tmp_path / "x.t4"
        write_t4(path, Tensor4.zeros(1, 2, 3, 4))
        with open(path, "rb") as fh:
            assert fh.readline() == b"T4 1 2 3 4\n"

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.t4"
        path.write_bytes(b"T4 1 1 2 2\n" + b"\x00" * 8)
        with pytest.raises(DomainError, match="truncated"):
            read_t4(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.t4"
        path.write_bytes(b"nope\n")
        with pytest.raises(DomainError, match="header"):
            read_t4(path)

    @pytest.mark.parametrize("header, detail", [
        (b"T4 -1 3 64 64\n", ">= 1"),
        (b"T4 0 3 8 8\n", ">= 1"),
        (b"T4 a b c d\n", "header"),
        (b"T4 1 3 8\n", "header"),
        (b"T4 1 1 1 1 1\n", "header"),
        (b"\xff\xfe1 1 1 1\n", "header"),
        (b"", "header"),
    ])
    def test_rejects_malformed_header(self, tmp_path, header, detail):
        path = tmp_path / "bad.t4"
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(DomainError, match=detail):
            read_t4(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_payload(self, tmp_path, value):
        arr = np.zeros((1, 1, 2, 2))
        arr[0, 0, 1, 0] = value
        path = tmp_path / "bad.t4"
        write_t4(path, arr)
        with pytest.raises(DomainError, match="non-finite"):
            read_t4(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "bad.t4"
        write_t4(path, Tensor4.zeros(1, 1, 2, 2))
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DomainError, match="after the payload"):
            read_t4(path)


class TestAnnotations:
    def test_single_line(self, tmp_path):
        path = tmp_path / "img_000.txt"
        path.write_text("0 0.5 0.5 0.2 0.4\n")
        gts = load_annotations(path)
        assert len(gts) == 1
        assert gts[0].class_id == 0
        assert gts[0].box == Box(0.5, 0.5, 0.2, 0.4)
        assert gts[0].image_id == "img_000"

    def test_empty_file_is_zero_objects(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert load_annotations(path) == []

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.5 0.5 0.2 0.4\n")
        with pytest.raises(AnnotationError) as err:
            load_annotations(path)
        assert err.value.line_no == 1

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0.5 0.5 0.2 0.4\n0 0.5 0.5\n")
        with pytest.raises(AnnotationError) as err:
            load_annotations(path)
        assert err.value.line_no == 2

    def test_round_trip_value_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        gts = [GroundTruth(int(rng.integers(3)),
                           Box(*rng.uniform(0.3, 0.6, size=4)), "a")
               for _ in range(5)]
        path = tmp_path / "a.txt"
        save_annotations(path, gts)
        back = load_annotations(path)
        for g1, g2 in zip(gts, back):
            assert g1.class_id == g2.class_id
            assert g1.box == g2.box

    def test_predictions_round_trip(self, tmp_path):
        dets = [Detection(1, 0.875, Box(0.5, 0.5, 0.25, 0.25), "p")]
        path = tmp_path / "p.txt"
        save_predictions(path, dets)
        back = load_predictions(path)
        assert back[0].confidence == 0.875
        assert back[0].box == dets[0].box


def load_every_kind(path):
    return load_config(path, ModelConfig, TrainParams, ToyData, DroiConfig)


class TestConfig:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("# model\nnum_classes = 3\nnms_iou = 0.625  # overlap\n\n")
        assert load_config(path, ModelConfig) == (ModelConfig(num_classes=3, nms_iou=0.625),)

    def test_write_then_parse(self, tmp_path):
        path = tmp_path / "m.cfg"
        cfg = ModelConfig(num_classes=3, activation="silu", use_igd=False)
        write_config(path, cfg)
        lines = path.read_text().splitlines()
        # every field, in dataclass field order
        assert [line.split(" = ")[0] for line in lines] == [
            f.name for f in dataclasses.fields(ModelConfig)]
        assert {"num_classes = 3", "activation = silu", "use_igd = false"} <= set(lines)
        assert load_config(path, ModelConfig) == (cfg,)

    def test_load_defaults_without_path(self):
        assert load_config(None, ModelConfig, TrainParams) == (ModelConfig(), TrainParams())

    def test_load_splits_keys_by_kind(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("num_classes = 4\nseed = 5\nuse_simam = off\ntoy_images = 3\n")
        model, params, data = load_config(path, ModelConfig, TrainParams, ToyData)
        assert (model.num_classes, model.use_simam) == (4, False)
        assert params == TrainParams(seed=5)
        assert data == ToyData(toy_images=3)

    @pytest.mark.parametrize("text", ["1", "true", "Yes", "ON", "0", "false", "no", "Off"])
    def test_strict_booleans_accepted(self, tmp_path, text):
        path = tmp_path / "m.cfg"
        path.write_text(f"deadband = {text}\n")
        (cfg,) = load_config(path, DroiConfig)
        assert cfg.deadband is (text.lower() in ("1", "true", "yes", "on"))

    @pytest.mark.parametrize("line, detail", [
        ("num_clases = 5", "unknown key"),
        ("use_simam = flase", "not a boolean"),
        ("steps = 1.5", "steps"),
        ("conf_threshold = nan", "not finite"),
        ("nms_iou = wide", "nms_iou"),
        ("strides = 8,16,32", "unknown key"),
    ])
    def test_load_rejects_bad_lines(self, tmp_path, line, detail):
        path = tmp_path / "m.cfg"
        path.write_text(f"# header\nnum_classes = 2\n{line}\n")
        with pytest.raises(AnnotationError, match=detail) as err:
            load_config(path, ModelConfig, TrainParams)
        assert err.value.line_no == 3

    def test_non_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_bytes(b"num_classes = 2\nactivation = mi\xffsh\n")
        with pytest.raises(AnnotationError, match="UTF-8") as err:
            load_config(path, ModelConfig)
        assert err.value.line_no == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("just words\n")
        with pytest.raises(AnnotationError, match="expected key = value") as err:
            load_config(path, ModelConfig)
        assert err.value.line_no == 1

    @pytest.mark.parametrize("read", [load_every_kind, lambda p: load_config(p, DroiConfig)])
    def test_duplicate_key_names_second_line(self, tmp_path, read):
        path = tmp_path / "droi.cfg"
        path.write_text("deadband = true\n# again\ndeadband = false\n")
        with pytest.raises(AnnotationError, match="duplicate key 'deadband'.*line 1") as err:
            read(path)
        assert err.value.line_no == 3


class TestReadme:
    KINDS = {"Model": ModelConfig, "Training": TrainParams, "Toy data": ToyData,
             "ROI planner": DroiConfig}

    def test_config_keys_match_the_code(self):
        """Each "Configuration keys" bullet's first sentence names exactly the
        fields of its dataclass, in order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
        bullets = {}
        for bullet in section.split("\n- ")[1:]:
            label, text = bullet.split(":", 1)
            bullets[label] = re.findall(r"`([a-z][a-z0-9_]*)`", text.split(". ", 1)[0])
        assert set(bullets) == set(self.KINDS)
        for label, kind in self.KINDS.items():
            assert bullets[label] == [f.name for f in dataclasses.fields(kind)], label

    def test_cli_flags_match_the_parser(self):
        """Each `microdet <cmd> ...` usage line of the CLI section names exactly the
        `--flags` of that subcommand's parser, and every subcommand has one."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n#", 1)[0]
        usage = {}
        for cmd, rest in re.findall(r"`microdet ([a-z][a-z-]*)([^`]*)`", section):
            assert cmd not in usage, f"two usage lines for {cmd}"
            usage[cmd] = sorted(re.findall(r"--[a-z][a-z-]*", rest))
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {cmd: sorted(o for a in p._actions for o in a.option_strings
                             if o.startswith("--") and o != "--help")
                 for cmd, p in sub.choices.items()}
        assert usage == flags


class TestToyScene:
    def test_deterministic_per_seed(self):
        a_img, a_gts = generate_toy_scene(42)
        b_img, b_gts = generate_toy_scene(42)
        assert np.array_equal(a_img.data, b_img.data)
        assert [(g.class_id, g.box) for g in a_gts] == [(g.class_id, g.box) for g in b_gts]
        c_img, _ = generate_toy_scene(43)
        assert not np.array_equal(a_img.data, c_img.data)

    def test_zero_objects_pure_background(self):
        img, gts = generate_toy_scene(0, num_objects=0)
        assert gts == []
        assert img.data.max() < 0.4  # background band only

    def test_values_in_unit_range(self):
        img, _ = generate_toy_scene(1, num_objects=3)
        assert img.data.min() >= 0.0
        assert img.data.max() <= 1.0

    def test_rasterization_round_trip(self):
        """Emitted boxes match the painted pixel extents within one pixel."""
        size = 64
        img, gts = generate_toy_scene(7, image_size=size, num_objects=3)
        bg, _ = generate_toy_scene(7, image_size=size, num_objects=0)
        for g in gts:
            x1, y1, x2, y2 = g.box.corners()
            cols = np.where(np.abs(img.data[0] - bg.data[0]).sum(axis=(0, 1)) > 1e-9)[0]
            rows = np.where(np.abs(img.data[0] - bg.data[0]).sum(axis=(0, 2)) > 1e-9)[0]
            # painted region must cover this box's extent to the pixel
            assert cols.min() <= round(x1 * size) + 1
            assert cols.max() >= round(x2 * size) - 2
            assert rows.min() <= round(y1 * size) + 1
            assert rows.max() >= round(y2 * size) - 2

    @pytest.mark.parametrize("size", [32, 34])
    def test_image_too_small_for_the_largest_object(self, tmp_path, size):
        """A 30 px object needs 35 px with margin; the dataset is rejected
        before any directory is made."""
        with pytest.raises(DomainError, match="cannot fit"):
            generate_toy_dataset(tmp_path / "d", n_images=1, image_size=size)
        assert not (tmp_path / "d").exists()

    def test_infeasible_packing_error(self):
        """35 px is the smallest image that fits a 30 px object, but not four of 14 px up."""
        with pytest.raises(DomainError, match="could not pack 4 objects"):
            generate_toy_scene(0, image_size=35, num_objects=4)

    def test_annotations_exactly_match_integer_bounds(self):
        size = 64
        _, gts = generate_toy_scene(3, image_size=size, num_objects=2)
        for g in gts:
            for v in (g.box.cx * size * 2, g.box.cy * size * 2,
                      g.box.w * size, g.box.h * size):
                assert v == pytest.approx(round(v), abs=1e-9)


class TestManifest:
    def test_dataset_round_trip(self, tmp_path):
        mpath = generate_toy_dataset(tmp_path, seed=0, n_images=4)
        man = load_manifest(mpath)
        assert man.classes == ["class0", "class1"]
        assert len(man.entries) == 4
        img = man.load_image(0)
        assert img.shape == (1, 3, 64, 64)
        gts = man.load_gts(0)
        assert all(g.class_id < 2 for g in gts)

    def test_missing_file_detected(self, tmp_path):
        mpath = generate_toy_dataset(tmp_path, seed=0, n_images=2)
        (tmp_path / "images" / "img_000.t4").unlink()
        with pytest.raises(DomainError, match="missing"):
            load_manifest(mpath)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("classes = a\nbogus = 1\n")
        with pytest.raises(AnnotationError, match="unknown"):
            load_manifest(path)

    def test_manifest_requires_classes(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("image = a.t4 a.txt\n")
        with pytest.raises(DomainError, match="classes"):
            load_manifest(path)

    def test_save_manifest_format(self, tmp_path):
        man = DatasetManifest(["a", "b"], [("i.t4", "i.txt")], root=tmp_path)
        save_manifest(tmp_path / "m.txt", man)
        assert (tmp_path / "m.txt").read_text() == "classes = a,b\nimage = i.t4 i.txt\n"

    def test_split_key_rejected(self, tmp_path):
        # older manifests began with `split = train`; nothing read it
        path = tmp_path / "manifest.txt"
        path.write_text("classes = a\nsplit = train\n")
        with pytest.raises(AnnotationError, match="unknown manifest key 'split'") as err:
            load_manifest(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("key", ["classes"])
    def test_duplicate_key_rejected(self, tmp_path, key):
        path = tmp_path / "manifest.txt"
        path.write_text(f"classes = a\nimage = a.t4 a.txt\n{key} = b\n")
        with pytest.raises(AnnotationError, match=f"duplicate key '{key}'") as err:
            load_manifest(path)
        assert err.value.line_no == 3

    def test_each_annotation_file_parsed_once(self, tmp_path, monkeypatch):
        import microdet.dataio as dataio

        mpath = generate_toy_dataset(tmp_path, seed=0, n_images=2)
        parsed = []
        real = dataio.load_annotations
        monkeypatch.setattr(dataio, "load_annotations",
                            lambda path: parsed.append(path) or real(path))
        man = load_manifest(mpath)
        first = [man.load_gts(i) for i in range(2)]
        assert len(parsed) == 2
        first[0].clear()  # callers get their own list
        assert man.load_gts(0) == real(tmp_path / man.entries[0][1])
        assert len(parsed) == 2

    def test_class_id_out_of_range_in_labels(self, tmp_path):
        mpath = generate_toy_dataset(tmp_path, seed=0, n_images=1)
        label = next((tmp_path / "labels").iterdir())
        label.write_text("9 0.5 0.5 0.2 0.2\n")
        with pytest.raises(DomainError, match="class"):
            load_manifest(mpath)
