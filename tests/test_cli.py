"""CLI contracts: subcommands, exit codes, and cross-run determinism."""

import pytest

from microdet import activations, metrics
from microdet.cli import main
from microdet.dataio import (
    ToyData,
    load_annotations,
    load_config,
    load_predictions,
    write_config,
)
from microdet.droi import DroiConfig
from microdet.metrics import DEFAULT_IOU_THRESHOLDS
from microdet.model import ModelConfig
from microdet.train import TrainParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalSweep:
    @pytest.fixture
    def one_box(self, tmp_path):
        """One ground truth and one prediction at IoU 0.739: a true positive at
        0.50-0.70, five of the ten sweep thresholds."""
        for d, line in (("gt", "0 0.5 0.5 0.2 0.2\n"), ("pred", "0 0.9 0.53 0.5 0.2 0.2\n")):
            (tmp_path / d).mkdir()
            (tmp_path / d / "a.txt").write_text(line)
        (tmp_path / "classes.txt").write_text("class0\n")
        return ["eval", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                "--classes", str(tmp_path / "classes.txt")]

    def test_plain_eval_scores_the_sweep(self, capsys, one_box):
        code, out, _ = run_cli(capsys, *one_box)
        assert code == 0
        assert "iou_thresholds: 0.5 0.55 0.6 0.65 0.7 0.75 0.8 0.85 0.9 0.95\n" in out
        assert "map50: 1.000000\n" in out
        assert "map50_95: 0.500000\n" in out

    def test_map50_is_at_iou_05_whatever_the_sweep(self, one_box, tmp_path):
        """A sweep without 0.5 still reports AP@0.5 as map50, in the ap50 column
        and in the PR curve; only map50_95 reads the sweep (AP@0.75 is 0 here)."""
        gts = load_annotations(tmp_path / "gt" / "a.txt")
        dets = load_predictions(tmp_path / "pred" / "a.txt")
        report = metrics.evaluate(dets, gts, ["class0"], iou_thresholds=[0.75])
        assert report.map50 == metrics.evaluate(dets, gts, ["class0"]).map50 == 1.0
        assert report.map50_95 == 0.0
        assert "map50: 1.000000\n" in report.to_text()
        assert "\nclass0 1.000000 0.000000 " in report.to_text()
        assert report.pr_curve_rows(0) == [(0.9, 1.0, 1.0)]

    @pytest.mark.parametrize("flags", [["--iou", "0.5"], ["--all-thresholds"]])
    def test_removed_threshold_flags_are_usage_errors(self, capsys, one_box, flags):
        with pytest.raises(SystemExit) as exc:
            main([*one_box, *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


class TestDroiCommands:
    def test_straight_at_rest_prints_base_width(self, capsys):
        code, out, _ = run_cli(capsys, "droi", "--theta", "0", "--speed", "0")
        assert code == 0
        assert "w_c 3.000000" in out
        assert "regime straight" in out

    def test_config_override(self, capsys, tmp_path):
        """The verbatim law counts the 10 degrees the deadband ignores: 3 + 0.05 * 10."""
        cfg = tmp_path / "droi.cfg"
        write_config(cfg, DroiConfig(deadband=False))
        code, out, _ = run_cli(capsys, "droi", "--theta", "10", "--speed", "0",
                               "--config", str(cfg))
        assert code == 0
        assert "w_c 3.500000" in out

    def test_negative_speed_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "droi", "--theta", "0", "--speed", "-1")
        assert code == 1
        assert "error:" in err

    def test_replay(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("t,theta_deg,speed_mps\n0,0,0\n1,45,10\n")
        out_csv = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "droi-replay", "--log", str(log),
                               "--out", str(out_csv))
        assert code == 0
        assert "mean_roi_fraction" in out
        assert out_csv.read_text().startswith("t,w_c,regime")

    @pytest.mark.parametrize("theta, speed", [("nan", "3"), ("0", "inf")])
    def test_non_finite_input_exits_one(self, capsys, theta, speed):
        code, out, err = run_cli(capsys, "droi", "--theta", theta, "--speed", speed)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err
        assert "w_c" not in out

    def test_replay_non_finite_row(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("t,theta_deg,speed_mps\n0,nan,5\n")
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "droi-replay", "--log", str(log),
                                 "--out", str(out_csv))
        assert code == 1
        assert err == f"error: droi: {log}:2: non-finite value in '0,nan,5'\n"
        assert "mean_roi_fraction" not in out and not out_csv.exists()

    def test_replay_bad_log(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("t,theta_deg,speed_mps\n1,0,0\n1,0,0\n")
        code, _, err = run_cli(capsys, "droi-replay", "--log", str(log))
        assert code == 1
        assert "timestamps" in err


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["droi", "--banana", "1"])
        assert exc.value.code == 2

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "droi-replay", "--log", "/nonexistent.csv")
        assert code == 1
        assert "error:" in err


class TestGenToy:
    def test_generates_dataset(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen-toy", "--seed", "1", "--out",
                               str(tmp_path / "d"), "--images", "3")
        assert code == 0
        assert "manifest" in out
        assert (tmp_path / "d" / "images" / "img_002.t4").exists()

    def test_deterministic(self, capsys, tmp_path):
        for name in ("a", "b"):
            run_cli(capsys, "gen-toy", "--seed", "9", "--out",
                    str(tmp_path / name), "--images", "2")
        for rel in ("images/img_000.t4", "labels/img_000.txt", "manifest.txt"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


GRADCHECK_ROWS = [
    "conv2d", "batchnorm2d", "maxpool2d", "resize_nearest", "mish", "silu", "relu",
    "simam_forward", "ghost_conv", "c3ghost_block", "sim_conv", "simsppf_forward",
    "igd_neck_forward", "ciou_loss", "dfl_loss", "bce_logits", "model_end_to_end",
]


# every row whose graph runs Mish: the standalone op, and each block built of
# SimConvs, whose batchnorm applies Mish (SimAM and the losses run none)
MISH_ROWS = ["mish", "ghost_conv", "c3ghost_block", "sim_conv", "simsppf_forward",
             "igd_neck_forward", "model_end_to_end"]


def wrong_mish_derivative(monkeypatch):
    """Scale the derivative of the one Mish kernel by 1.01, keeping its value."""
    right = activations.ACTIVATIONS["mish"]

    def wrong(a):
        value, grad = right.value_grad(a)
        return value, 1.01 * grad

    monkeypatch.setitem(activations.ACTIVATIONS, "mish", right._replace(value_grad=wrong))


class TestGradcheckCommand:
    def test_every_row_in_print_order(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seeds", "1")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == GRADCHECK_ROWS
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "17/17 gradient checks passed"

    def test_module_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--module", "all"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --module" in capsys.readouterr().err

    def test_wrong_mish_derivative_fails_its_row(self, capsys, monkeypatch):
        """Every row that runs Mish fails, and only those."""
        wrong_mish_derivative(monkeypatch)
        code, out, _ = run_cli(capsys, "gradcheck", "--seeds", "1")
        assert code == 1
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")]
        assert failed == MISH_ROWS
        assert out.splitlines()[-1] == "10/17 gradient checks passed"


class TestSelftestCommand:
    def test_pristine_build_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "10/10 suites passed" in out
        assert "FAIL" not in out

    def test_wrong_mish_derivative_fails_gradients(self, capsys, monkeypatch):
        """The gradient suite and the mish'(0) value check both read the kernel."""
        wrong_mish_derivative(monkeypatch)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        # the gradient suite stops at its first failing row, the mish row
        assert failed[0].startswith("FAIL gradients: gradient check failed for mish: ")
        assert failed[1:] == ["FAIL mish-values: mish'(0) != 0.6"]
        assert "8/10 suites passed" in out


class TestBenchCommand:
    def test_table_and_totals(self, capsys):
        code, out, _ = run_cli(capsys, "bench")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("ghost_c64 8x8 2336 ") for line in lines)
        ratio = [line.split()[1] for line in lines if line.startswith("ghost_to_plain_ratio ")]
        assert len(ratio) == 1 and float(ratio[0]) <= 0.75
        assert "forward_64x64_median_ms" not in out


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A short CLI training run shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli_train")
    cfg = root / "toy.cfg"
    write_config(cfg, ModelConfig(num_classes=2), TrainParams(steps=8, seed=5),
                 ToyData(toy_images=4))
    code = main(["train-toy", "--config", str(cfg), "--out", str(root / "run")])
    assert code == 0
    return root


class TestTrainForwardEval:
    def test_outputs_exist(self, trained_run):
        run = trained_run / "run"
        for name in ("weights.w1", "model.cfg", "loss_curve.csv"):
            assert (run / name).exists()
        curve = (run / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "step,lr,total,cls,box,dfl"
        assert len(curve) == 9

    def test_model_cfg_reads_back(self, trained_run):
        kinds = ModelConfig, TrainParams, ToyData
        echoed = load_config(trained_run / "run" / "model.cfg", *kinds)
        assert echoed == load_config(trained_run / "toy.cfg", *kinds)
        assert echoed[1].steps == 8 and echoed[2].toy_images == 4

    def test_forward_writes_predictions(self, trained_run, capsys):
        run = trained_run / "run"
        out_file = trained_run / "det.txt"
        code, out, _ = run_cli(capsys, "forward",
                               "--weights", str(run / "weights.w1"),
                               "--input", str(run / "data/images/img_000.t4"),
                               "--out", str(out_file))
        assert code == 0
        assert "detections" in out
        load_predictions(out_file)  # parses cleanly

    def test_forward_deterministic(self, trained_run, capsys):
        run = trained_run / "run"
        outs = []
        for name in ("d1.txt", "d2.txt"):
            path = trained_run / name
            run_cli(capsys, "forward", "--weights", str(run / "weights.w1"),
                    "--input", str(run / "data/images/img_001.t4"),
                    "--out", str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_perfect_predictions_give_map_one(self, trained_run, capsys, tmp_path):
        """Ground truth echoed as predictions at confidence 1.0 scores 1.0."""
        run = trained_run / "run"
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        gt_dir = run / "data" / "labels"
        for gt_file in gt_dir.glob("*.txt"):
            lines = []
            for line in gt_file.read_text().splitlines():
                parts = line.split()
                lines.append(" ".join([parts[0], "1.0"] + parts[1:]))
            (pred_dir / gt_file.name).write_text("\n".join(lines) + "\n")
        classes = tmp_path / "classes.txt"
        classes.write_text("class0\nclass1\n")
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir),
                               "--pred", str(pred_dir), "--classes", str(classes))
        assert code == 0
        assert "map50: 1.000000" in out
        assert "mf1: 1.000000" in out

    def test_eval_all_thresholds_and_outputs(self, trained_run, capsys, tmp_path, monkeypatch):
        """The PR curves reuse the evaluation's matches: one per (class, threshold)."""
        run = trained_run / "run"
        gt_dir = run / "data" / "labels"
        pred_dir = tmp_path / "p"
        pred_dir.mkdir()
        for gt_file in gt_dir.glob("*.txt"):
            lines = []
            for line in gt_file.read_text().splitlines():
                parts = line.split()
                lines.append(" ".join([parts[0], "0.9"] + parts[1:]))
            (pred_dir / gt_file.name).write_text("\n".join(lines) + "\n")
        classes = tmp_path / "classes.txt"
        classes.write_text("class0\nclass1\n")
        out_dir = tmp_path / "ev"
        calls = []
        real_match = metrics.match
        monkeypatch.setattr(metrics, "match", lambda *a: calls.append(a[2]) or real_match(*a))
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir),
                               "--pred", str(pred_dir), "--classes", str(classes),
                               "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "confusion_raw.csv").exists()
        # echoed ground truth: the last row reaches recall 1 at precision 1
        assert (out_dir / "pr_curve_class0.csv").read_text().endswith(",1,1\n")
        assert sorted(calls) == sorted([*DEFAULT_IOU_THRESHOLDS] * 2)

    def test_train_determinism_across_runs(self, trained_run, capsys):
        cfg = trained_run / "toy.cfg"
        code = main(["train-toy", "--config", str(cfg),
                     "--out", str(trained_run / "run_again")])
        assert code == 0
        a = (trained_run / "run" / "weights.w1").read_bytes()
        b = (trained_run / "run_again" / "weights.w1").read_bytes()
        assert a == b
        c1 = (trained_run / "run" / "loss_curve.csv").read_bytes()
        c2 = (trained_run / "run_again" / "loss_curve.csv").read_bytes()
        assert c1 == c2
