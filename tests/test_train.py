"""Optimizer behavior and toy-loop determinism (short runs only)."""

import numpy as np
import pytest

from microdet.dataio import generate_toy_dataset, load_manifest
from microdet.losses import LossWeights, detection_loss
from microdet.model import ModelConfig, build_model, load_weights, save_weights
from microdet.train import (
    LrSchedule,
    TrainParams,
    TrainState,
    _stack_images,
    adamw_step,
    train_toy,
)
from microdet.tensor import DomainError, GradTape, backward
from oracles import adamw_loop_oracle
from test_backward_oracle import _traced_peak


@pytest.fixture(scope="module")
def toy_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("toyset")
    return load_manifest(generate_toy_dataset(root, seed=0, n_images=6))


class TestSchedule:
    def test_warmup_then_cosine(self):
        sched = LrSchedule(0.01, total_steps=100, warmup_steps=10, final_frac=0.1)
        assert sched.lr(0) == pytest.approx(0.001)
        assert sched.lr(9) == pytest.approx(0.01)
        assert sched.lr(10) == pytest.approx(0.01)
        assert sched.lr(99) == pytest.approx(0.001, rel=0.3)
        lrs = [sched.lr(s) for s in range(10, 100)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestAdamw:
    def test_single_step_matches_hand_computation(self):
        model = build_model(ModelConfig(), 0)
        state = TrainState(model=model, seed=0,
                           schedule=LrSchedule(0.1, 10, warmup_steps=1, final_frac=1.0))
        state.init_moments()
        params = TrainParams()
        name, p = next(iter(model.named_params()))
        before = p.data.copy()
        for _, q in model.named_params():
            q.grad = np.ones_like(q.data)
        adamw_step(state, params)
        # bias-corrected first step with g=1: the moment term is exactly
        # 1/(1+eps), and the decay adds weight_decay * p before the step
        expect = before - 0.1 * (1.0 / (1.0 + params.eps) + params.weight_decay * before)
        np.testing.assert_allclose(p.data, expect, rtol=1e-12)

    def test_decoupled_weight_decay(self):
        model = build_model(ModelConfig(), 0)
        state = TrainState(model=model, seed=0,
                           schedule=LrSchedule(0.1, 10, warmup_steps=1, final_frac=1.0))
        state.init_moments()
        params = TrainParams()
        name, p = next(iter(model.named_params()))
        before = p.data.copy()
        for _, q in model.named_params():
            q.grad = np.zeros_like(q.data)
        adamw_step(state, params)
        np.testing.assert_allclose(p.data, before * (1 - 0.1 * params.weight_decay),
                                   rtol=1e-12)

    def test_lr_zero_leaves_params_identical(self):
        model = build_model(ModelConfig(), 1)
        state = TrainState(model=model, seed=1, schedule=LrSchedule(0.0, 3, 1, 0.05))
        state.init_moments()
        before = {name: p.data.tobytes() for name, p in model.named_params()}
        rng = np.random.default_rng(1)
        for _ in range(3):
            for _, q in model.named_params():
                q.grad = rng.normal(size=q.data.shape)
            assert adamw_step(state, TrainParams()) == 0.0
        for name, p in model.named_params():
            assert p.data.tobytes() == before[name], name


def _seeded_grads(model, rng, skip):
    """A fresh normal grad on every parameter but the registry index `skip`."""
    for i, (_, q) in enumerate(model.named_params()):
        q.grad = None if i == skip else rng.normal(size=q.data.shape)


class TestAdamwFlatBuffer:
    """The flat in-place update against the per-parameter loop, byte for byte."""

    @staticmethod
    def _assert_same(state, oracle_model, moments):
        bounds = dict(zip((n for n, _ in state.model.named_params()), state.bounds))
        for (name, p), (_, q) in zip(state.model.named_params(), oracle_model.named_params()):
            assert p.data.tobytes() == q.data.tobytes(), name
            lo, hi = bounds[name]
            m, v = moments.get(name, (np.zeros(hi - lo), np.zeros(hi - lo)))
            assert state.moment1[lo:hi].tobytes() == m.tobytes(), name
            assert state.moment2[lo:hi].tobytes() == v.tobytes(), name

    @pytest.mark.parametrize("reload", [False, True])
    def test_matches_loop_oracle(self, reload, tmp_path):
        """Six steps with seeded grads; one parameter per step has none. With
        `reload`, weights are loaded after init_moments, which must fill the
        views of the flat buffer in place."""
        params = TrainParams()
        model, oracle_model = build_model(ModelConfig(), 3), build_model(ModelConfig(), 3)
        state = TrainState(model=model, seed=3, schedule=LrSchedule(0.01, 8, 2, 0.05))
        state.init_moments()
        if reload:
            save_weights(build_model(ModelConfig(), 4), tmp_path / "w.w1")
            load_weights(model, tmp_path / "w.w1")
            load_weights(oracle_model, tmp_path / "w.w1")
        n_params = len(list(model.named_params()))
        moments = {}
        for step in range(6):
            skip = (7 * step + 2) % n_params
            _seeded_grads(model, np.random.default_rng(step), skip)
            _seeded_grads(oracle_model, np.random.default_rng(step), skip)
            name, p = list(model.named_params())[skip]
            before = p.data.tobytes()
            lr = adamw_step(state, params)
            adamw_loop_oracle(oracle_model, moments, lr, step + 1, params)
            assert p.data.tobytes() == before, name
            self._assert_same(state, oracle_model, moments)

    def test_rebound_parameter_is_refused(self):
        model = build_model(ModelConfig(), 0)
        state = TrainState(model=model, schedule=LrSchedule(0.01, 8, 2, 0.05))
        state.init_moments()
        name, p = next(iter(model.named_params()))
        p.data = p.data.copy()
        with pytest.raises(DomainError, match=f"parameter {name} no longer views"):
            adamw_step(state, TrainParams())

    def test_frozen_parameter_stays_put(self, toy_manifest):
        """A parameter unmarked after a step holds a stale grad from that step;
        the update must not read it and drops it, so its value and moments
        hold and its grad reads None."""
        batch = _stack_images(toy_manifest)
        gts = [toy_manifest.load_gts(i) for i in range(len(toy_manifest.entries))]
        model = build_model(ModelConfig(), 0)
        model.set_training(True, track_stats=True)
        state = TrainState(model=model, schedule=LrSchedule(0.01, 8, 2, 0.05))
        state.init_moments()
        names = [name for name, _ in model.named_params()]
        frozen, neighbour = names[0], names[1]
        params = dict(model.named_params())
        bounds = dict(zip(names, state.bounds))

        def snapshot(name):
            lo, hi = bounds[name]
            return [params[name].data.tobytes(), state.moment1[lo:hi].tobytes(),
                    state.moment2[lo:hi].tobytes()]

        def step():
            tape = GradTape()
            detection_loss(model.forward(batch, tape), gts, LossWeights(), tape)
            backward(tape)
            adamw_step(state, TrainParams())

        step()
        params[frozen].requires_grad = False
        before, other = snapshot(frozen), snapshot(neighbour)
        step()
        assert params[frozen].grad is None
        step()
        assert snapshot(frozen) == before
        assert all(a != b for a, b in zip(snapshot(neighbour), other))

    def test_peak_stays_within_three_buffers(self):
        """The update allocates the gathered grads and one scratch array, not a
        temporary per operation."""
        model = build_model(ModelConfig(), 0)
        state = TrainState(model=model, schedule=LrSchedule(0.01, 8, 2, 0.05))
        state.init_moments()
        _seeded_grads(model, np.random.default_rng(0), skip=None)
        adamw_step(state, TrainParams())  # first step: caches and lazy imports settle
        peak = _traced_peak(lambda: adamw_step(state, TrainParams()))
        assert peak <= 3 * state.values.nbytes, (peak, state.values.nbytes)


class TestTrainToy:
    def test_zero_steps_rejected(self):
        # a run that would train nothing is rejected before a model is built
        for steps in (0, -2):
            with pytest.raises(DomainError, match=f"steps must be >= 1, got {steps}"):
                TrainParams(steps=steps, seed=1)

    def test_deterministic_per_seed(self, toy_manifest):
        params = TrainParams(steps=3, seed=2)
        s1, c1 = train_toy(toy_manifest, ModelConfig(), params)
        s2, c2 = train_toy(toy_manifest, ModelConfig(), params)
        assert c1 == c2
        for (_, pa), (_, pb) in zip(s1.model.named_params(), s2.model.named_params()):
            assert np.array_equal(pa.data, pb.data)

    def test_loss_decreases_over_short_run(self, toy_manifest):
        params = TrainParams(steps=40, seed=0)
        _, curve = train_toy(toy_manifest, ModelConfig(), params)
        assert curve[-1][2] < curve[0][2]

    def test_empty_manifest_error(self, tmp_path):
        from microdet.dataio import DatasetManifest

        with pytest.raises(DomainError, match="no images"):
            train_toy(DatasetManifest(["a"], [], root=tmp_path),
                      ModelConfig(), TrainParams(steps=1))
