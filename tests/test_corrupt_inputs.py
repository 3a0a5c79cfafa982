"""Malformed T4/W1 files, configs and text inputs: exit 1 with one `error:` line,
never a traceback."""

import struct

import numpy as np
import pytest

from microdet.cli import main
from microdet.dataio import write_t4
from microdet.model import ModelConfig, build_model, load_weights, save_weights
from microdet.tensor import DomainError


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """Untrained weights plus a valid input image, as `forward` expects them."""
    root = tmp_path_factory.mktemp("corrupt")
    save_weights(build_model(ModelConfig(), 0), root / "weights.w1")
    write_t4(root / "image.t4", np.random.default_rng(0).uniform(size=(1, 3, 64, 64)))
    return root


def expect_one_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def w1_record(data, pos):
    """(name_end, header_end, end) offsets of the W1 record that starts at pos."""
    (name_len,) = struct.unpack("<I", data[pos:pos + 4])
    name_end = pos + 4 + name_len
    header_end = data.index(b"\n", name_end) + 1
    numel = int(np.prod([int(v) for v in data[name_end:header_end].split()[1:]]))
    return name_end, header_end, header_end + 8 * numel


def w1_cuts(data):
    """Offsets that cut a W1 file at every record boundary and inside every field."""
    pos = data.index(b"\n") + 1
    cuts = [0, pos - 1]
    while pos < len(data):
        name_end, header_end, end = w1_record(data, pos)
        cuts += [pos, pos + 2, (pos + 4 + name_end) // 2, name_end + 2,
                 (header_end + end) // 2, end - 1]
        pos = end
    return cuts


def model_bytes(model):
    """Every parameter and running statistic of a model, as bytes."""
    return ([p.data.tobytes() for _, p in model.named_params()]
            + [buf.tobytes() for _, buf in model.named_buffers()])


class TestW1Truncation:
    def test_every_cut_is_a_domain_error(self, tmp_path):
        # without the neck and ghost blocks the quadratic sweep takes a few seconds
        model = build_model(ModelConfig(use_igd=False, use_c3ghost=False), 0)
        path = tmp_path / "cut.w1"
        save_weights(model, path)
        data = path.read_bytes()
        cuts = w1_cuts(data)
        for cut in cuts:
            path.write_bytes(data[:cut])
            with pytest.raises(DomainError):
                load_weights(model, path)
        assert len(cuts) > 6 * len(list(model.named_params()))

    def test_failed_load_leaves_the_model_untouched(self, run_dir, tmp_path):
        """A file cut inside its last record changes no parameter or statistic."""
        path = tmp_path / "cut.w1"
        path.write_bytes((run_dir / "weights.w1").read_bytes()[:-4])
        model = build_model(ModelConfig(), 1)
        before = model_bytes(model)
        with pytest.raises(DomainError, match="truncated"):
            load_weights(model, path)
        assert model_bytes(model) == before

    def test_repeated_record_rejected(self, run_dir, tmp_path):
        data = (run_dir / "weights.w1").read_bytes()
        first = data.index(b"\n") + 1
        count = int(data[:first].split()[1])
        _, _, end = w1_record(data, first)
        path = tmp_path / "twice.w1"
        path.write_bytes(f"W1 {count + 1}\n".encode() + data[first:] + data[first:end])
        model = build_model(ModelConfig(), 1)
        before = model_bytes(model)
        with pytest.raises(DomainError, match="repeated record 'stem1.weight'"):
            load_weights(model, path)
        assert model_bytes(model) == before

    def test_trailing_bytes_rejected(self, run_dir, tmp_path):
        path = tmp_path / "long.w1"
        path.write_bytes((run_dir / "weights.w1").read_bytes() + b"\x00")
        with pytest.raises(DomainError, match="after the last record"):
            load_weights(build_model(ModelConfig(), 0), path)

    @pytest.mark.parametrize("where", ["header", "name", "payload"])
    def test_cli_forward(self, run_dir, tmp_path, capsys, where):
        data = (run_dir / "weights.w1").read_bytes()
        first = data.index(b"\n") + 1
        cut = {"header": first - 1, "name": first + 6, "payload": len(data) - 4}[where]
        (tmp_path / "weights.w1").write_bytes(data[:cut])
        err = expect_one_error(capsys, [
            "forward", "--weights", str(tmp_path / "weights.w1"),
            "--input", str(run_dir / "image.t4"), "--out", str(tmp_path / "d.txt")])
        assert "truncated" in err


T4_CASES = {
    "negative_dim": b"T4 -1 3 64 64\n",
    "zero_dim": b"T4 0 3 8 8\n",
    "non_integer": b"T4 a b c d\n",
    "too_few_fields": b"T4 1 3 64\n",
    "non_utf8": b"\xff\xfe\x80 1 3 64 64\n",
}


class TestT4Inputs:
    @pytest.mark.parametrize("name", sorted(T4_CASES))
    def test_bad_header(self, run_dir, tmp_path, capsys, name):
        path = tmp_path / "x.t4"
        path.write_bytes(T4_CASES[name] + b"\x00" * 8 * 3 * 64 * 64)
        expect_one_error(capsys, [
            "forward", "--weights", str(run_dir / "weights.w1"),
            "--input", str(path), "--out", str(tmp_path / "d.txt")])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload(self, run_dir, tmp_path, capsys, value):
        path = tmp_path / "x.t4"
        write_t4(path, np.full((1, 3, 64, 64), value))
        err = expect_one_error(capsys, [
            "forward", "--weights", str(run_dir / "weights.w1"),
            "--input", str(path), "--out", str(tmp_path / "d.txt")])
        assert "non-finite" in err
        assert not (tmp_path / "d.txt").exists()

    @pytest.mark.parametrize("value", [1e300, -1e200])
    def test_overflowing_payload(self, run_dir, tmp_path, capsys, value):
        """A finite pixel too large for the forward pass is an error, not 0 detections."""
        image = np.random.default_rng(1).uniform(size=(1, 3, 64, 64))
        image[0, 1, 5, 7] = value
        path = tmp_path / "x.t4"
        write_t4(path, image)
        err = expect_one_error(capsys, [
            "forward", "--weights", str(run_dir / "weights.w1"),
            "--input", str(path), "--out", str(tmp_path / "d.txt")])
        assert "model output not finite" in err
        assert not (tmp_path / "d.txt").exists()

    def test_two_images(self, run_dir, tmp_path, capsys):
        """Prediction lines carry no image id, so a batch would merge into one file."""
        path = tmp_path / "x.t4"
        write_t4(path, np.random.default_rng(1).uniform(size=(2, 3, 64, 64)))
        err = expect_one_error(capsys, [
            "forward", "--weights", str(run_dir / "weights.w1"),
            "--input", str(path), "--out", str(tmp_path / "d.txt")])
        assert "x.t4: 2 images, not one" in err
        assert not (tmp_path / "d.txt").exists()


CONFIG_CASES = {
    "typo_key": ("num_clases = 5", "unknown key 'num_clases'"),
    "typo_bool": ("use_simam = flase", "not a boolean"),
    "fractional_int": ("steps = 1.5", "steps"),
}


class TestConfigs:
    @pytest.mark.parametrize("name", sorted(CONFIG_CASES))
    def test_train_toy(self, tmp_path, capsys, name):
        line, detail = CONFIG_CASES[name]
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"toy_images = 2\n{line}\n")
        err = expect_one_error(capsys, ["train-toy", "--config", str(cfg),
                                        "--out", str(tmp_path / "run")])
        assert f"{cfg}:2:" in err and detail in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", sorted(CONFIG_CASES))
    def test_forward(self, run_dir, tmp_path, capsys, name):
        line, detail = CONFIG_CASES[name]
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"{line}\n")
        err = expect_one_error(capsys, [
            "forward", "--weights", str(run_dir / "weights.w1"), "--config", str(cfg),
            "--input", str(run_dir / "image.t4"), "--out", str(tmp_path / "d.txt")])
        assert detail in err

    @pytest.mark.parametrize("line, detail", [
        ("conf_threshold = 2.0", "conf_threshold 2.0 not in [0, 1]"),
        ("nms_iou = -1", "nms_iou -1.0 not in (0, 1]"),
    ], ids=["conf_threshold_above_one", "negative_nms_iou"])
    def test_forward_decode_setting_out_of_range(self, run_dir, tmp_path, capsys, line, detail):
        """Both once passed: a threshold of 2 kept no detection, and a negative
        NMS IoU suppressed all but one per class."""
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"{line}\n")
        err = expect_one_error(capsys, [
            "forward", "--weights", str(run_dir / "weights.w1"), "--config", str(cfg),
            "--input", str(run_dir / "image.t4"), "--out", str(tmp_path / "d.txt")])
        assert detail in err
        assert not (tmp_path / "d.txt").exists()

    def test_forward_missing_config(self, run_dir, tmp_path, capsys):
        """Only the implicit model.cfg beside the weights may be absent."""
        args = ["forward", "--weights", str(run_dir / "weights.w1"),
                "--input", str(run_dir / "image.t4"), "--out", str(tmp_path / "d.txt")]
        assert main(args) == 0
        (tmp_path / "d.txt").unlink()
        err = expect_one_error(capsys, args + ["--config", str(tmp_path / "missing.cfg")])
        assert "missing.cfg" in err
        assert not (tmp_path / "d.txt").exists()

    def test_droi(self, tmp_path, capsys):
        cfg = tmp_path / "droi.cfg"
        cfg.write_text("deadband = flase\n")
        err = expect_one_error(capsys, ["droi", "--theta", "0", "--speed", "0",
                                        "--config", str(cfg)])
        assert "deadband" in err

    def test_duplicate_key(self, tmp_path, capsys):
        cfg = tmp_path / "droi.cfg"
        cfg.write_text("deadband = true\ndeadband = false\n")
        err = expect_one_error(capsys, ["droi", "--theta", "0", "--speed", "0",
                                        "--config", str(cfg)])
        assert f"{cfg}:2:" in err and "duplicate key 'deadband'" in err

    def test_fixed_gain_is_not_a_key(self, tmp_path, capsys):
        """The gains and thresholds are DroiConfig constants, not config keys."""
        cfg = tmp_path / "droi.cfg"
        cfg.write_text("deadband = false\nw0 = 3.0\n")
        err = expect_one_error(capsys, ["droi", "--theta", "0", "--speed", "0",
                                        "--config", str(cfg)])
        assert f"{cfg}:2:" in err and "unknown key 'w0'" in err


class TestToyDataCounts:
    """Bad toy-data counts are rejected before any directory is made."""

    @pytest.mark.parametrize("flag, value, detail", [
        ("--classes", "0", "0 class(es)"), ("--images", "0", "0 image(s)")])
    def test_gen_toy(self, tmp_path, capsys, flag, value, detail):
        err = expect_one_error(capsys, ["gen-toy", "--out", str(tmp_path / "d"), flag, value])
        assert detail in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("lines, detail", [
        ("min_objects = 3\nmax_objects = 1", "got 3 and 1"),
        ("min_objects = -1", "got -1 and 3"),
        ("toy_images = 0", "0 image(s)"),
        ("min_objects = 12\nmax_objects = 12", "could not pack 12 objects")])
    def test_train_toy(self, tmp_path, capsys, lines, detail):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"steps = 1\n{lines}\n")
        err = expect_one_error(capsys, ["train-toy", "--config", str(cfg),
                                        "--out", str(tmp_path / "run")])
        assert detail in err
        assert not (tmp_path / "run").exists()


class TestRepeatCounts:
    """A count of zero repetitions is an error, not a run that checks or trains nothing."""

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_gradcheck_seeds(self, capsys, value):
        err = expect_one_error(capsys, ["gradcheck", "--seeds", value])
        assert "gradcheck: no seeds to check" in err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_train_toy_steps(self, tmp_path, capsys, value):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"toy_images = 2\nsteps = {value}\n")
        err = expect_one_error(capsys, ["train-toy", "--config", str(cfg),
                                        "--out", str(tmp_path / "run")])
        assert f"steps must be >= 1, got {value}" in err
        assert not (tmp_path / "run").exists()


class TestRunSettings:
    """A bad seed or a removed recipe key is one error line, before anything is written."""

    def test_gen_toy_negative_seed(self, tmp_path, capsys):
        err = expect_one_error(capsys, ["gen-toy", "--seed", "-1", "--out",
                                        str(tmp_path / "toy")])
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "toy").exists()

    def test_train_toy_negative_seed(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("toy_images = 2\nsteps = 1\nseed = -5\n")
        err = expect_one_error(capsys, ["train-toy", "--config", str(cfg),
                                        "--out", str(tmp_path / "run")])
        assert "seed must be >= 0, got -5" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", [
        "lr = -0.01", "weight_decay = 0.0005", "momentum = 0.937", "beta2 = 1.0",
        "eps = 0", "warmup_steps = 30", "lr_final_frac = 0.05", "lambda_cls = 0.5",
        "lambda_box = 7.5", "lambda_dfl = 1.5",
    ])
    def test_train_toy_recipe_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"steps = 1\n{line}\n")
        err = expect_one_error(capsys, ["train-toy", "--config", str(cfg),
                                        "--out", str(tmp_path / "run")])
        assert f"{cfg}:2:" in err and f"unknown key {line.split()[0]!r}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("size", ["32", "48", "64"])
    def test_train_toy_image_size_key(self, tmp_path, capsys, size):
        """Toy scenes are 64 px: `image_size` is no key, whatever its value."""
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"steps = 1\nimage_size = {size}\n")
        err = expect_one_error(capsys, ["train-toy", "--config", str(cfg),
                                        "--out", str(tmp_path / "run")])
        assert f"{cfg}:2:" in err and "unknown key 'image_size'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("size", ["32", "64"])
    def test_gen_toy_size_flag(self, tmp_path, capsys, size):
        """Toy scenes are 64 px: `gen-toy --size` is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["gen-toy", "--out", str(tmp_path / "d"), "--size", size])
        assert exc.value.code == 2
        assert "unrecognized arguments: --size" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestEmptyTrajectory:
    @pytest.mark.parametrize("text", ["", "t,theta_deg,speed_mps\n", "\n\n"])
    def test_droi_replay(self, tmp_path, capsys, text):
        log = tmp_path / "traj.csv"
        log.write_text(text)
        out = tmp_path / "out.csv"
        err = expect_one_error(capsys, ["droi-replay", "--log", str(log), "--out", str(out)])
        assert "no samples" in err
        assert not out.exists()


class TestTrajectoryFirstLine:
    def test_mistyped_first_sample_is_no_header(self, tmp_path, capsys):
        """A first line with a numeric field is a sample: `1O` (letter O) is an
        error naming line 1, not a header that drops the sample."""
        log = tmp_path / "traj.csv"
        log.write_text("0,1O,5\n0.1,12.5,4\n")
        out = tmp_path / "out.csv"
        err = expect_one_error(capsys, ["droi-replay", "--log", str(log), "--out", str(out)])
        assert f"{log}:1: unparsable" in err
        assert not out.exists()


class TestNonUtf8Text:
    def test_droi_replay_log(self, tmp_path, capsys):
        log = tmp_path / "traj.csv"
        log.write_bytes(b"t,theta_deg,speed_mps\n0,\xff,1\n")
        err = expect_one_error(capsys, ["droi-replay", "--log", str(log)])
        assert f"{log}:2:" in err and "UTF-8" in err

    def test_eval_classes(self, tmp_path, capsys):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        classes = tmp_path / "classes.txt"
        classes.write_bytes(b"class0\ncl\xffass1\n")
        err = expect_one_error(capsys, ["eval", "--gt", str(tmp_path / "gt"),
                                        "--pred", str(tmp_path / "pred"),
                                        "--classes", str(classes)])
        assert f"{classes}:2:" in err and "UTF-8" in err


@pytest.fixture
def eval_dirs(tmp_path):
    """One image with one object, predicted exactly; returns the eval argv."""
    for d in ("gt", "pred"):
        (tmp_path / d).mkdir()
    (tmp_path / "gt" / "a.txt").write_text("0 0.5 0.5 0.2 0.2\n")
    (tmp_path / "pred" / "a.txt").write_text("0 0.8 0.5 0.5 0.2 0.2\n")
    (tmp_path / "classes.txt").write_text("class0\n")
    return ["eval", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
            "--classes", str(tmp_path / "classes.txt")]


class TestEvalInputs:
    @pytest.mark.parametrize("value", ["nan", "1.5", "inf", "0", "-1"])
    def test_meaningless_iou(self, eval_dirs, capsys, value):
        """eval always scores the 0.50:0.05:0.95 sweep: `--iou` is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main([*eval_dirs, "--iou", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --iou" in capsys.readouterr().err

    def test_orphan_prediction_file(self, eval_dirs, tmp_path, capsys):
        (tmp_path / "pred" / "b.txt").write_text("0 0.9 0.5 0.5 0.2 0.2\n")
        err = expect_one_error(capsys, eval_dirs)
        assert str(tmp_path / "pred" / "b.txt") in err

    @pytest.mark.parametrize("flag", ["--gt", "--pred"])
    def test_missing_directory(self, eval_dirs, tmp_path, capsys, flag):
        argv = list(eval_dirs)
        argv[argv.index(flag) + 1] = str(tmp_path / "nope")
        err = expect_one_error(capsys, argv)
        assert f"{flag} {tmp_path / 'nope'}" in err

    def test_ground_truth_directory_without_files(self, eval_dirs, tmp_path, capsys):
        (tmp_path / "gt" / "a.txt").unlink()
        (tmp_path / "pred" / "a.txt").unlink()
        err = expect_one_error(capsys, eval_dirs)
        assert "no *.txt ground-truth file" in err

    def test_empty_ground_truth_file_declares_no_objects(self, eval_dirs, tmp_path, capsys):
        """With b.txt declared empty, its detection is a false positive ranked first."""
        (tmp_path / "pred" / "b.txt").write_text("0 0.9 0.5 0.5 0.2 0.2\n")
        (tmp_path / "gt" / "b.txt").write_text("")
        assert main(eval_dirs) == 0
        assert "map50: 0.500000" in capsys.readouterr().out

    @pytest.mark.parametrize("text, detail", [
        ("ped\nped\n", "classes.txt:2: duplicate class name 'ped' (first on line 1)"),
        ("class0\n\n  class0 \n", "classes.txt:3: duplicate class name 'class0'"),
        ("class0\na/b\n", "classes.txt:2: class name 'a/b' holds '/'"),
        ("class0\na\0b\n", "classes.txt:2: class name 'a\\x00b' holds '/' or a NUL"),
    ], ids=["repeated", "repeated_after_strip", "slash", "nul"])
    def test_class_names_that_cannot_name_a_file(self, eval_dirs, tmp_path, capsys,
                                                  text, detail):
        """Each name becomes pr_curve_<name>.csv: rejected before any output."""
        (tmp_path / "classes.txt").write_text(text)
        err = expect_one_error(capsys, [*eval_dirs, "--out", str(tmp_path / "ev")])
        assert detail in err
        assert not (tmp_path / "ev").exists()
