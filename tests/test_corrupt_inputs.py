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


def w1_cuts(data):
    """Offsets that cut a W1 file at every record boundary and inside every field."""
    pos = data.index(b"\n") + 1
    cuts = [0, pos - 1]
    while pos < len(data):
        (name_len,) = struct.unpack("<I", data[pos:pos + 4])
        name_end = pos + 4 + name_len
        header_end = data.index(b"\n", name_end) + 1
        numel = int(np.prod([int(v) for v in data[name_end:header_end].split()[1:]]))
        end = header_end + 8 * numel
        cuts += [pos, pos + 2, pos + 4 + name_len // 2, name_end + 2,
                 header_end + 4 * numel, end - 1]
        pos = end
    return cuts


class TestW1Truncation:
    def test_every_cut_is_a_domain_error(self, tmp_path):
        # a shallow model keeps the quadratic sweep to a second or two
        model = build_model(ModelConfig(depth=0.5, use_igd=False, use_c3ghost=False), 0)
        path = tmp_path / "cut.w1"
        save_weights(model, path)
        data = path.read_bytes()
        cuts = w1_cuts(data)
        for cut in cuts:
            path.write_bytes(data[:cut])
            with pytest.raises(DomainError):
                load_weights(model, path)
        assert len(cuts) > 6 * len(list(model.named_params()))

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

    def test_droi(self, tmp_path, capsys):
        cfg = tmp_path / "droi.cfg"
        cfg.write_text("deadband = flase\n")
        err = expect_one_error(capsys, ["droi", "--theta", "0", "--speed", "0",
                                        "--config", str(cfg)])
        assert "deadband" in err

    def test_duplicate_key(self, tmp_path, capsys):
        cfg = tmp_path / "droi.cfg"
        cfg.write_text("w0 = 5\nw0 = 7\n")
        err = expect_one_error(capsys, ["droi", "--theta", "0", "--speed", "0",
                                        "--config", str(cfg)])
        assert f"{cfg}:2:" in err and "duplicate key 'w0'" in err


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
        err = expect_one_error(capsys, [*eval_dirs, "--iou", value])
        assert "IoU thresholds" in err

    def test_iou_one_is_accepted(self, eval_dirs, capsys):
        assert main([*eval_dirs, "--iou", "1"]) == 0
        assert "map50: 1.000000" in capsys.readouterr().out

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
