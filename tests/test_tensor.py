"""Tensor engine tests: oracles, analytic values, and finite differences."""

import numpy as np
import pytest

from microdet.tensor import (
    BatchNormState,
    ConvSpec,
    DomainError,
    GradCheckReport,
    GradTape,
    ShapeError,
    Tensor4,
    accumulate,
    add,
    backward,
    batchnorm2d,
    concat_channels,
    conv2d,
    exp,
    grad_check,
    log,
    maxpool2d,
    mul,
    resize_nearest,
    scalar_mul,
    sigmoid,
    softplus,
    sum_all,
    tanh,
)
from microdet.activations import mish
from microdet.module import Module
from oracles import backward_prezero_oracle, conv2d_scalar_oracle, maxpool_scalar_oracle


class TestTensor4:
    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 3)))

    def test_scalar_item(self):
        assert Tensor4.scalar(2.5).item() == 2.5

    def test_data_length_matches_shape(self):
        t = Tensor4.zeros(2, 3, 4, 5)
        assert t.numel == t.data.size == 2 * 3 * 4 * 5
        assert t.grad is None


class TestConv2d:
    def test_identity_1x1_grouped(self):
        """Per-channel identity 1x1 kernel reproduces the input."""
        rng = np.random.default_rng(0)
        x = Tensor4(rng.normal(size=(2, 3, 4, 4)))
        spec = ConvSpec(3, 3, k=1, s=1, p=0, g=3)
        w = Tensor4(np.ones((3, 1, 1, 1)))
        out = conv2d(x, spec, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_kernel_sums_entries(self):
        x = Tensor4(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        spec = ConvSpec(1, 1, k=3)
        out = conv2d(x, spec, Tensor4(np.ones((1, 1, 3, 3))))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 45.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.integers(-4, 5, size=(2, 4, 5, 5)).astype(float)
        w = rng.integers(-3, 4, size=(3, 4, 3, 3)).astype(float)
        spec = ConvSpec(4, 3, k=3, s=2, p=1)
        out = conv2d(Tensor4(x), spec, Tensor4(w))
        assert out.shape == (2, 3, 3, 3)
        np.testing.assert_array_equal(out.data, conv2d_scalar_oracle(x, w, 2, 1))

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_grouped_matches_oracle(self, g):
        """g == 1 matches the scalar oracle. A 4 -> 8 conv with g > 1 is not
        depthwise, and the spec rejects it naming the groups."""
        if g > 1:
            with pytest.raises(ShapeError, match=f"groups {g} must be 1 or equal c_in=4"):
                ConvSpec(4, 8, k=3, s=1, p=1, g=g)
            return
        rng = np.random.default_rng(2 + g)
        x = rng.integers(-3, 4, size=(2, 4, 6, 5)).astype(float)
        w = rng.integers(-3, 4, size=(8, 4, 3, 3)).astype(float)
        spec = ConvSpec(4, 8, k=3, s=1, p=1)
        out = conv2d(Tensor4(x), spec, Tensor4(w))
        np.testing.assert_array_equal(out.data, conv2d_scalar_oracle(x, w, 1, 1, g=g))

    def test_bias_applied(self):
        x = Tensor4(np.zeros((1, 2, 2, 2)))
        spec = ConvSpec(2, 3, k=1)
        w = Tensor4(np.zeros((3, 2, 1, 1)))
        b = Tensor4(np.arange(3.0).reshape(1, 3, 1, 1))
        out = conv2d(x, spec, w, bias=b)
        np.testing.assert_array_equal(out.data[0, :, 0, 0], [0.0, 1.0, 2.0])

    def test_bias_shape_error(self):
        x = Tensor4(np.zeros((1, 2, 2, 2)))
        w = Tensor4(np.zeros((3, 2, 1, 1)))
        with pytest.raises(ShapeError, match=r"bias shape \(1, 2, 1, 1\)"):
            conv2d(x, ConvSpec(2, 3, k=1), w, bias=Tensor4(np.zeros((1, 2, 1, 1))))

    def test_channel_mismatch_error(self):
        x = Tensor4.zeros(1, 3, 4, 4)
        spec = ConvSpec(4, 2, k=1)
        with pytest.raises(ShapeError, match="channels"):
            conv2d(x, spec, Tensor4(np.zeros((2, 4, 1, 1))))

    def test_nonpositive_output_error(self):
        spec = ConvSpec(1, 1, k=5)
        with pytest.raises(ShapeError, match="non-positive"):
            conv2d(Tensor4.zeros(1, 1, 3, 3), spec, Tensor4(np.zeros((1, 1, 5, 5))))

    def test_forward_bit_identical(self):
        rng = np.random.default_rng(3)
        x = Tensor4(rng.normal(size=(2, 3, 8, 8)))
        spec = ConvSpec(3, 5, k=3, s=1, p=1)
        w = Tensor4(rng.normal(size=(5, 3, 3, 3)))
        a = conv2d(x, spec, w)
        b = conv2d(x, spec, w)
        assert np.array_equal(a.data, b.data)

    def test_shape_algebra_grid(self):
        """Output dims obey floor((d + 2p - k)/s) + 1 over a parameter grid."""
        rng = np.random.default_rng(4)
        for d in (4, 7, 9):
            for k in (1, 2, 3):
                for s in (1, 2, 3):
                    for p in (0, 1):
                        expect = (d + 2 * p - k) // s + 1
                        if expect < 1:
                            continue
                        spec = ConvSpec(1, 1, k=k, s=s, p=p)
                        x = Tensor4(rng.normal(size=(1, 1, d, d)))
                        w = Tensor4(rng.normal(size=(1, 1, k, k)))
                        out = conv2d(x, spec, w)
                        assert out.shape == (1, 1, expect, expect)


class TestMaxpool:
    def test_constant_invariance(self):
        x = Tensor4(np.full((1, 2, 6, 6), 3.7))
        out = maxpool2d(x, 5, 1, 2)
        np.testing.assert_array_equal(out.data, x.data)

    def test_3x3_known_map(self):
        x = Tensor4(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        out = maxpool2d(x, 3, 1, 1)
        np.testing.assert_array_equal(
            out.data[0, 0], [[5, 6, 6], [8, 9, 9], [8, 9, 9]]
        )

    def test_cascade_equals_wider_kernel(self):
        """Two 5/1/2 pools equal one 9/1/4 pool, element-exact."""
        rng = np.random.default_rng(5)
        x = Tensor4(rng.normal(size=(2, 3, 9, 11)))
        twice = maxpool2d(maxpool2d(x, 5, 1, 2), 5, 1, 2)
        once = maxpool2d(x, 9, 1, 4)
        np.testing.assert_array_equal(twice.data, once.data)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 7, 6))
        out = maxpool2d(Tensor4(x), 3, 2, 1)
        np.testing.assert_array_equal(out.data, maxpool_scalar_oracle(x, 3, 2, 1))

    def test_padding_never_selected(self):
        """With all-negative input, outputs come from real entries only."""
        rng = np.random.default_rng(7)
        x = -1.0 - rng.random(size=(1, 2, 5, 5))
        out = maxpool2d(Tensor4(x), 5, 1, 2)
        assert np.isfinite(out.data).all()
        assert (out.data < 0).all()
        assert np.isin(out.data, x).all()

    def test_nonpositive_output_error(self):
        with pytest.raises(ShapeError):
            maxpool2d(Tensor4.zeros(1, 1, 2, 2), 5, 1, 0)


class TestBatchnorm:
    def test_normalization_fixed_point(self):
        """Already-normalized input is only scaled, by 1/sqrt(1 + eps) at eps 0.01."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        st = BatchNormState.create(3)
        out = batchnorm2d(Tensor4(x), st)
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + 0.01), rtol=1e-12, atol=1e-15)

    def test_gamma_zero_collapses_to_beta(self):
        rng = np.random.default_rng(9)
        st = BatchNormState.create(2)
        st.gamma = Tensor4(np.zeros((1, 2, 1, 1)))
        st.beta = Tensor4(np.array([1.5, -2.0]).reshape(1, 2, 1, 1))
        out = batchnorm2d(Tensor4(rng.normal(size=(2, 2, 4, 4))), st)
        np.testing.assert_array_equal(out.data[:, 0], np.full((2, 4, 4), 1.5))
        np.testing.assert_array_equal(out.data[:, 1], np.full((2, 4, 4), -2.0))

    def test_output_statistics(self):
        rng = np.random.default_rng(10)
        st = BatchNormState.create(3)
        x = rng.normal(2.0, 3.0, size=(4, 3, 8, 8))
        out = batchnorm2d(Tensor4(x), st)
        means = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        sigma2 = x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(means, 0.0, atol=1e-9)
        np.testing.assert_allclose(var, sigma2 / (sigma2 + 0.01), rtol=1e-9)

    def test_running_stats_update_and_inference(self):
        rng = np.random.default_rng(11)
        st = BatchNormState.create(2)
        x = rng.normal(1.0, 2.0, size=(8, 2, 4, 4))
        batchnorm2d(Tensor4(x), st)
        cnt = 8 * 4 * 4
        np.testing.assert_allclose(st.running_mean, 0.1 * x.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(
            st.running_var, 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * cnt / (cnt - 1)
        )
        st.training = False
        out = batchnorm2d(Tensor4(x), st)
        expect = (x - st.running_mean.reshape(1, 2, 1, 1)) / np.sqrt(
            st.running_var.reshape(1, 2, 1, 1) + 0.01
        )
        np.testing.assert_allclose(out.data, expect)

    def test_channel_mismatch_error(self):
        with pytest.raises(ShapeError, match="channels"):
            batchnorm2d(Tensor4.zeros(1, 3, 2, 2), BatchNormState.create(2))


class TestConcatResize:
    def test_single_part_identity(self):
        x = Tensor4(np.random.default_rng(12).normal(size=(1, 2, 3, 3)))
        np.testing.assert_array_equal(concat_channels([x]).data, x.data)

    def test_order_preserved(self):
        a = Tensor4(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
        b = Tensor4(np.array([3.0, 4.0]).reshape(1, 2, 1, 1))
        out = concat_channels([a, b])
        np.testing.assert_array_equal(out.data.reshape(-1), [1, 2, 3, 4])

    def test_spatial_mismatch_error(self):
        with pytest.raises(ShapeError, match="part 1"):
            concat_channels([Tensor4.zeros(1, 1, 2, 2), Tensor4.zeros(1, 1, 3, 2)])

    def test_resize_identity(self):
        x = Tensor4(np.random.default_rng(13).normal(size=(1, 2, 3, 5)))
        np.testing.assert_array_equal(resize_nearest(x, 3, 5).data, x.data)

    def test_resize_index_arithmetic(self):
        x = Tensor4(np.array([5.0, 7.0]).reshape(1, 1, 1, 2))
        out = resize_nearest(x, 1, 4)
        np.testing.assert_array_equal(out.data.reshape(-1), [5, 5, 7, 7])

    def test_resize_round_trip(self):
        rng = np.random.default_rng(14)
        x = Tensor4(rng.normal(size=(1, 2, 3, 5)))
        up = resize_nearest(x, 6, 10)
        down = resize_nearest(up, 3, 5)
        np.testing.assert_array_equal(down.data, x.data)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor4.scalar(0.0)).item() == 0.5

    def test_softplus_at_zero(self):
        assert softplus(Tensor4.scalar(0.0)).item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_softplus_large_input_stable(self):
        assert softplus(Tensor4.scalar(100.0)).item() == pytest.approx(100.0, abs=1e-12)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError, match="coordinate"):
            log(Tensor4(np.array([[[[1.0, -2.0]]]])))

    def test_binary_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor4.zeros(1, 1, 2, 2), Tensor4.zeros(1, 1, 2, 3))

    def test_exp_tanh_values(self):
        x = Tensor4(np.array([[[[0.0, 1.0]]]]))
        np.testing.assert_allclose(exp(x).data.reshape(-1), [1.0, np.e])
        np.testing.assert_allclose(tanh(x).data.reshape(-1), [0.0, np.tanh(1.0)])


def _mixed_tape(seed, marked=(0, 1, 2)):
    """A tape with fan-out, concat, resize and an output nothing consumes.

    Returns the tape and its leaves x, w, b, gamma and beta; `marked` indexes
    the ones among x, w and b marked requires_grad before the forward. The
    unconsumed sigmoid of the pooled map is recorded after the resize that
    also reads it, so the resize adds into a grad that already exists.
    """
    rng = np.random.default_rng(seed)
    x = Tensor4(rng.normal(size=(2, 3, 6, 6)))
    w = Tensor4(rng.normal(size=(4, 3, 3, 3)))
    b = Tensor4(rng.normal(size=(1, 4, 1, 1)))
    for i in marked:
        (x, w, b)[i].requires_grad = True
    holder = Module()  # registering the state makes gamma and beta parameters
    holder.bn = st = BatchNormState.create(4)
    st.track_stats = False
    tape = GradTape()
    y = batchnorm2d(conv2d(x, ConvSpec(3, 4, k=3, s=1, p=1), w, b, tape), st, tape)
    pooled = maxpool2d(y, 3, 2, 1, tape)
    upsampled = resize_nearest(pooled, 6, 6, tape)
    sigmoid(pooled, tape)
    cat = concat_channels([add(upsampled, y, tape), mul(sigmoid(y, tape), y, tape)], tape)
    sum_all(mul(cat, cat, tape), tape)
    return tape, [x, w, b, st.gamma, st.beta]


def _leaf_grads(make, replay):
    tape, leaves = make()
    replay(tape, leaves)
    return [t.grad.tobytes() for t in leaves]


def _replay(tape, leaves):
    backward(tape)


def _prezero(tape, leaves):
    backward_prezero_oracle(tape)


class TestBackward:
    def test_scalar_mul_gradient(self):
        x = Tensor4(np.random.default_rng(15).normal(size=(1, 2, 3, 3)))
        x.requires_grad = True
        tape = GradTape()
        scalar_mul(x, 2.0, tape)
        backward(tape)
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 2.0))

    def test_square_sum_gradient(self):
        x = Tensor4(np.random.default_rng(16).normal(size=(2, 2, 2, 2)))
        x.requires_grad = True
        tape = GradTape()
        sum_all(mul(x, x, tape), tape)
        backward(tape)
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_fanout_accumulates(self):
        x = Tensor4(np.random.default_rng(17).normal(size=(1, 1, 2, 2)))
        x.requires_grad = True
        tape = GradTape()
        sum_all(add(mul(x, x, tape), scalar_mul(x, 3.0, tape), tape), tape)
        backward(tape)
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0)

    def test_untouched_leaf_keeps_zero_grad(self):
        """A marked leaf whose entry never reaches the output reports zeros."""
        rng = np.random.default_rng(14)
        x = Tensor4(rng.normal(size=(1, 1, 2, 2)))
        y = Tensor4(rng.normal(size=(1, 1, 2, 2)))
        x.requires_grad = y.requires_grad = True
        tape = GradTape()
        scalar_mul(y, 3.0, tape)  # read by no later entry
        scalar_mul(x, 2.0, tape)
        backward(tape)
        assert y.grad.tobytes() == np.zeros((1, 1, 2, 2)).tobytes()
        assert x.grad.tobytes() == np.full((1, 1, 2, 2), 2.0).tobytes()

    def test_output_is_marked_exactly_when_an_input_is(self):
        """A conv of an unmarked image with a parameter weight is marked, and
        so is everything made from it; sum_all of an unmarked tensor is not,
        nor is an op whose inputs were marked only after it was recorded."""
        rng = np.random.default_rng(12)
        image = Tensor4(rng.normal(size=(1, 2, 4, 4)))
        w = Tensor4(rng.normal(size=(3, 2, 1, 1)))
        w.requires_grad = True
        plain = Tensor4(rng.normal(size=(1, 3, 4, 4)))
        tape = GradTape()
        y = conv2d(image, ConvSpec(2, 3, k=1), w, tape=tape)
        unmarked = sum_all(plain, tape)
        late = scalar_mul(plain, 2.0, tape)
        plain.requires_grad = True
        marked = sum_all(add(y, plain, tape), tape)
        assert (y.requires_grad, marked.requires_grad) == (True, True)
        assert (image.requires_grad, unmarked.requires_grad, late.requires_grad) == (
            False, False, False)
        assert conv2d(image, ConvSpec(2, 3, k=1), w).requires_grad is False

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_tape_matches_prezero_oracle(self, seed):
        assert (_leaf_grads(lambda: _mixed_tape(seed), _replay)
                == _leaf_grads(lambda: _mixed_tape(seed), _prezero))

    def test_seed_array_is_not_adopted(self):
        """add hands the seed on to u, which the scalar_mul then adds into."""
        rng = np.random.default_rng(23)
        x = Tensor4(rng.normal(size=(1, 2, 3, 3)))
        x.requires_grad = True
        tape = GradTape()
        u = mul(x, x, tape)
        add(u, scalar_mul(u, 3.0, tape), tape)
        seed_arr = rng.normal(size=x.shape)
        seed = Tensor4(seed_arr.copy())
        backward(tape, seed)
        assert seed.data.tobytes() == seed_arr.tobytes()

    @staticmethod
    def _assert_holders(named):
        """Parameters (the batchnorm's gamma and beta here) and the leaves
        marked before the forward hold grads; the unmarked leaves among x, w
        and b and every produced tensor do not."""
        tape, leaves = _mixed_tape(0, marked=named)
        gamma, beta = leaves[3:]
        backward(tape)
        holders = {id(leaves[i]) for i in named} | {id(gamma), id(beta)}
        assert {id(t) for t in leaves} <= {id(t) for t in tape.tensors()}
        assert [t.requires_grad for t in leaves[:3]] == [i in named for i in range(3)]
        for t in tape.tensors():
            if id(t) in holders:
                assert t.grad.shape == t.shape
            else:
                assert t.grad is None

    def test_only_leaves_hold_grads_afterwards(self):
        self._assert_holders(())

    @pytest.mark.parametrize("named", [(0,), (1, 2), (0, 1, 2)])
    def test_named_leaves_hold_grads_afterwards(self, named):
        self._assert_holders(named)

    def test_unconsumed_output_sends_zeros(self):
        """An output that nothing reads still runs its closure, on zeros of its shape."""
        received = []

        def make():
            x = Tensor4(np.random.default_rng(25).normal(size=(1, 2, 3, 3)))
            x.requires_grad = True
            tape = GradTape()
            sigmoid(x, tape)  # read by no later entry
            entry = tape._entries[-1]
            inner = entry.backfn

            def probe(up):
                received.append(up.copy())
                inner(up)

            entry.backfn = probe
            sum_all(mul(x, x, tape), tape)
            return tape, [x]

        assert _leaf_grads(make, _replay) == _leaf_grads(make, _prezero)
        assert len(received) == 2
        for up in received:
            assert up.tobytes() == np.zeros((1, 2, 3, 3)).tobytes()

    def test_add_of_intermediates_with_earlier_consumers(self):
        """Both inputs adopt add's gradient before their other consumers add into them."""

        def make():
            x = Tensor4(np.random.default_rng(26).normal(size=(1, 2, 3, 3)))
            x.requires_grad = True
            tape = GradTape()
            u = sigmoid(x, tape)
            v = mul(x, x, tape)
            cu = mul(u, u, tape)
            cv = scalar_mul(v, 2.0, tape)
            sum_all(mul(add(u, v, tape), add(cu, cv, tape), tape), tape)
            return tape, [x]

        assert _leaf_grads(make, _replay) == _leaf_grads(make, _prezero)

    @pytest.mark.parametrize("spec", [ConvSpec(3, 4, k=3, s=2, p=1), ConvSpec(3, 4, k=1),
                                      ConvSpec(3, 3, k=3, p=1, g=3)],
                             ids=["dense", "pointwise", "depthwise"])
    def test_conv_does_no_dx_work_for_an_unnamed_input(self, spec, monkeypatch):
        """Unmarked, the input gets no grad, and its conv runs neither the dcol
        matmul nor the scatter into a padded buffer of the input's shape.

        The dcol matmul is the one that makes the batch's input-gradient
        columns, (n, c_in * k * k, ho * wo); the weight gradient's matmuls
        make (.., c_out, c_in * k * k) products, whether batched or one per
        image."""
        dx_shapes = {(2, 3, 8, 8), (2, 3, 8 + 2 * spec.p, 8 + 2 * spec.p)}
        ho, wo = spec.out_hw(8, 8)
        dcol_shape = (2, 3 * spec.k * spec.k, ho * wo)

        def work(named):
            rng = np.random.default_rng(30)
            x = Tensor4(rng.normal(size=(2, 3, 8, 8)))
            w = Tensor4(rng.normal(size=spec.weight_shape()))
            x.requires_grad, w.requires_grad = named, True
            tape = GradTape()
            conv2d(x, spec, w, tape=tape)
            made = []
            with monkeypatch.context() as mp:
                for name in ("matmul", "zeros", "zeros_like"):
                    def spy(*args, _fn=getattr(np, name), _name=name, **kwargs):
                        out = _fn(*args, **kwargs)
                        made.append((_name, out.shape))
                        return out

                    mp.setattr(np, name, spy)
                backward(tape)
            assert w.grad is not None and (x.grad is not None) == named
            return (sum(name == "matmul" and shape == dcol_shape for name, shape in made),
                    any(name != "matmul" and shape in dx_shapes for name, shape in made))

        dcol_matmuls = 1 if spec.g == 1 else 0
        assert work(named=True) == (dcol_matmuls, True)
        assert work(named=False) == (0, False)

    def test_seed_shape_mismatch(self):
        tape = GradTape()
        scalar_mul(Tensor4.zeros(1, 1, 2, 2), 1.0, tape)
        with pytest.raises(ShapeError, match="seed"):
            backward(tape, Tensor4.zeros(1, 1, 3, 3))

    def test_empty_tape_error(self):
        with pytest.raises(ShapeError, match="empty"):
            backward(GradTape())

    def test_concat_routes_grads_as_slices(self):
        """Finite differences confirm concat backward slices correctly."""
        rng = np.random.default_rng(18)
        b = Tensor4(rng.normal(size=(1, 3, 2, 2)))

        def f(t, tape):
            return sum_all(mul(concat_channels([t, b], tape),
                               concat_channels([b, t], tape), tape), tape)

        rep = grad_check(f, Tensor4(rng.normal(size=(1, 3, 2, 2))), tol=1e-6)
        assert rep.passed, rep

    def test_conv_bn_mish_chain_matches_fd(self):
        rng = np.random.default_rng(19)
        spec = ConvSpec(2, 3, k=3, s=1, p=1)
        w = Tensor4(rng.normal(size=(3, 2, 3, 3)))
        st = BatchNormState.create(3)
        st.track_stats = False

        def f(t, tape):
            return mish(batchnorm2d(conv2d(t, spec, w, tape=tape), st, tape), tape)

        rep = grad_check(f, Tensor4(rng.normal(size=(2, 2, 5, 5))), tol=1e-4)
        assert rep.passed, rep


class TestGradCheck:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(20)
        rep = grad_check(lambda t, tape: scalar_mul(t, 1.0, tape),
                         Tensor4(rng.uniform(-2, 2, size=(1, 2, 4, 4))), tol=1e-10)
        assert rep.passed, rep
        assert rep.max_rel_err <= 1e-10

    def test_mish_passes(self):
        rng = np.random.default_rng(21)
        rep = grad_check(mish, Tensor4(rng.normal(size=(1, 2, 4, 4))), tol=1e-4)
        assert rep.passed, rep

    def test_corrupted_backward_fails(self):
        """A backward rule off by 1% must be flagged."""

        def bad_mish(t, tape):
            out = mish(t, None)
            if tape is not None:
                from microdet.activations import mish_value_grad

                def back(up):
                    accumulate(t, up * mish_value_grad(t.data)[1] * 1.01)

                tape.record((t,), out, back)
            return out

        rng = np.random.default_rng(22)
        rep = grad_check(bad_mish, Tensor4(rng.normal(size=(1, 1, 4, 4))), tol=1e-4)
        assert not rep.passed

    def test_leaves_the_callers_tensor_unmarked(self):
        """The check marks a tensor of its own; the caller's gets no flag and no grad."""
        x = Tensor4(np.random.default_rng(24).normal(size=(1, 2, 3, 3)))
        data = x.data.copy()
        assert grad_check(lambda t, tape: sum_all(mul(t, t, tape), tape), x).passed
        assert not x.requires_grad and x.grad is None
        assert x.data.tobytes() == data.tobytes()

    def test_checks_at_most_32_coordinates(self):
        rng = np.random.default_rng(23)
        for shape, n_coords in (((1, 1, 2, 2), 4), ((1, 2, 4, 4), 32), ((1, 2, 5, 5), 32)):
            rep = grad_check(mish, Tensor4(rng.normal(size=shape)), tol=1e-4)
            assert rep.passed and rep.n_coords == n_coords, (shape, rep)

    def test_report_is_printable(self):
        rep = GradCheckReport(1e-6, True, 32, (0, 0, 0, 0))
        assert "PASS" in str(rep)

    @pytest.mark.parametrize("seed", range(5))
    def test_core_ops_five_seeds(self, seed):
        """conv, bn, pool, resize, elementwise all pass grad_check on 5 seeds."""
        rng = np.random.default_rng(100 + seed)
        spec = ConvSpec(3, 4, k=3, s=2, p=1)
        w = Tensor4(rng.normal(size=(4, 3, 3, 3)))
        b = Tensor4(rng.normal(size=(1, 4, 1, 1)))
        st = BatchNormState.create(3)
        st.track_stats = False
        x = Tensor4(rng.normal(size=(2, 3, 6, 6)))

        checks = {
            "conv2d": lambda t, tape: conv2d(t, spec, w, bias=b, tape=tape),
            "conv2d_w": lambda t, tape: conv2d(x, spec, t, bias=b, tape=tape),
            "batchnorm2d": lambda t, tape: batchnorm2d(t, st, tape),
            "maxpool2d": lambda t, tape: maxpool2d(t, 3, 1, 1, tape),
            "resize": lambda t, tape: resize_nearest(t, 9, 4, tape),
            "sigmoid": sigmoid,
            "tanh": tanh,
            "softplus": softplus,
            "exp": exp,
        }
        for name, f in checks.items():
            arg = Tensor4(rng.normal(size=w.shape)) if name == "conv2d_w" else Tensor4(
                rng.normal(size=(2, 3, 6, 6))
            )
            rep = grad_check(f, arg, tol=1e-4, seed=seed)
            assert rep.passed, f"{name}: {rep}"
