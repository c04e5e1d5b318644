"""Unit and property tests for the reverse-mode differentiation engine."""

import numpy as np
import pytest

from hobnet import autodiff as ad
from hobnet.autodiff import (
    NonFiniteValue,
    Parameter,
    ShapeMismatch,
    Tape,
    TapeError,
    Tensor,
    backward,
    finite_difference_check,
)
from hobnet.rng import named_stream


def scalar_loss(out: Tensor, weight: np.ndarray) -> Tensor:
    """Reduce an op output to a scalar with a fixed random weighting."""
    return ad.total(ad.hadamard(out, Tensor(weight)))


class TestTensorBasics:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteValue):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteValue):
            Tensor([np.inf])

    def test_shape_invariant(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6

    def test_parameter_has_zero_grad_buffer(self):
        p = Parameter("w", np.ones((2, 2)))
        assert p.grad.shape == (2, 2)
        assert np.all(p.grad == 0.0)


class TestPrimitiveExamples:
    """Hand-checked values for individual primitives."""

    def test_conv1d_identity_like_kernel(self):
        out = ad.conv1d(Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 0.0]), Tensor(0.0))
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_conv1d_sliding_window_sum(self):
        out = ad.conv1d(Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 1.0]), Tensor(0.0))
        np.testing.assert_array_equal(out.data, [3.0, 5.0])

    def test_conv1d_multichannel_stride(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 11))
        w = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=3)
        out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2).data
        # brute-force sliding window oracle
        n_out = (11 - 4) // 2 + 1
        expected = np.zeros((3, n_out))
        for o in range(3):
            for i in range(n_out):
                expected[o, i] = np.sum(w[o] * x[:, 2 * i : 2 * i + 4]) + b[o]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_softmax_sums_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4)) * 3
        s1 = ad.softmax(Tensor(x)).data
        s2 = ad.softmax(Tensor(x + 11.25)).data
        np.testing.assert_allclose(s1.sum(axis=-1), 1.0, atol=1e-12)
        assert np.max(np.abs(s1 - s2)) <= 1e-12

    def test_concat_then_split_roundtrip(self):
        rng = np.random.default_rng(5)
        parts = [rng.normal(size=(3, 2)), rng.normal(size=(1, 2)), rng.normal(size=(4, 2))]
        out = ad.concat(*[Tensor(p) for p in parts], axis=0).data
        pieces = np.split(out, [3, 4], axis=0)
        for got, want in zip(pieces, parts):
            np.testing.assert_array_equal(got, want)

    def test_dropout_eval_is_bitwise_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        out = ad.dropout(x, 0.5, named_stream(0, "d"), training=False)
        assert out is x

    def test_dropout_rate_validation(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            ad.dropout(x, 1.0, named_stream(0, "d"), training=True)
        with pytest.raises(ValueError):
            ad.dropout(x, -0.1, named_stream(0, "d"), training=True)

    def test_dropout_train_scaling_preserves_mean(self):
        x = Tensor(np.ones((200, 50)))
        out = ad.dropout(x, 0.3, named_stream(1, "d"), training=True)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-12)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_upper_triangle_flatten_strict(self):
        m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        out = ad.upper_triangle_flatten(Tensor(m)).data
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_outer_product(self):
        out = ad.outer(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).data
        np.testing.assert_array_equal(out, [[1.0, 2.0], [2.0, 4.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_reshape_is_a_row_major_view(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(ad.reshape(Tensor(x), (-1,)).data, x.ravel())
        np.testing.assert_array_equal(ad.reshape(Tensor(x), (2, 6)).data, x.reshape(2, 6))

    def test_reshape_bad_shape_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(3, 4\).*\(5, -1\)"):
            ad.reshape(Tensor(np.zeros((3, 4))), (5, -1))

    def test_cross_entropy_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            ad.cross_entropy(Tensor([0.5, 0.5]), [2])

    def test_per_block_norm_zero_input_gives_shift(self):
        x = Tensor(np.zeros((4, 3)))
        out = ad.per_block_norm(x, Tensor(np.ones(3)), Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        p = Parameter("p", [1.0, 2.0, 3.0])
        with Tape() as tape:
            loss = ad.total(p.value)
        backward(tape, loss)
        np.testing.assert_allclose(p.grad, [1.0, 1.0, 1.0], atol=1e-12)

    def test_quadratic_gradient(self):
        p = Parameter("p", [1.0, 2.0])
        with Tape() as tape:
            loss = ad.total(ad.hadamard(p.value, p.value))
        backward(tape, loss)
        np.testing.assert_allclose(p.grad, [2.0, 4.0], atol=1e-12)

    def test_unreachable_parameter_keeps_zero_grad(self):
        used = Parameter("used", [2.0])
        unused = Parameter("unused", [5.0])
        with Tape() as tape:
            loss = ad.total(ad.hadamard(used.value, used.value))
        backward(tape, loss)
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_double_backward_is_an_error(self):
        p = Parameter("p", [1.0])
        with Tape() as tape:
            loss = ad.total(p.value)
        backward(tape, loss)
        with pytest.raises(TapeError, match="already ran"):
            backward(tape, loss)

    def test_non_scalar_loss_is_an_error(self):
        p = Parameter("p", [1.0, 2.0])
        with Tape() as tape:
            out = ad.relu(p.value)
        with pytest.raises(TapeError, match="scalar"):
            backward(tape, out)

    def test_matmul_grad_shape_duality(self):
        a = Parameter("a", np.random.default_rng(0).normal(size=(3, 4)))
        b = Parameter("b", np.random.default_rng(1).normal(size=(4, 2)))
        with Tape() as tape:
            loss = ad.total(ad.matmul(a.value, b.value))
        backward(tape, loss)
        assert a.grad.shape == a.value.shape
        assert b.grad.shape == b.value.shape

    def test_reused_tensor_accumulates_both_paths(self):
        p = Parameter("p", [3.0])
        with Tape() as tape:
            loss = ad.total(ad.add(ad.hadamard(p.value, p.value), p.value))
        backward(tape, loss)
        np.testing.assert_allclose(p.grad, [7.0], atol=1e-12)

    def test_no_recording_without_tape(self):
        p = Parameter("p", [1.0])
        out = ad.relu(p.value)
        assert out.requires_grad is False


def fd_over_all_entries(f, params, tolerance=1e-6):
    report = finite_difference_check(f, params, h=1e-5, tolerance=tolerance)
    assert not report.skipped, f"unexpected kink skips: {report.skipped}"
    assert report.passed, f"max relative error {report.max_rel_error}"
    return report


class TestPrimitiveGradients:
    """Central finite differences against every primitive's analytic rule."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def weight(self, shape):
        return self.rng.normal(size=shape)

    def test_matmul(self):
        a = Parameter("a", self.rng.normal(size=(3, 4)))
        b = Parameter("b", self.rng.normal(size=(4, 2)))
        w = self.weight((3, 2))
        fd_over_all_entries(lambda: scalar_loss(ad.matmul(a.value, b.value), w), [a, b])

    def test_matmul_vector_forms(self):
        a = Parameter("a", self.rng.normal(size=4))
        b = Parameter("b", self.rng.normal(size=(4, 3)))
        w = self.weight(3)
        fd_over_all_entries(lambda: scalar_loss(ad.matmul(a.value, b.value), w), [a, b])
        c = Parameter("c", self.rng.normal(size=3))
        w2 = self.weight(4)
        fd_over_all_entries(lambda: scalar_loss(ad.matmul(b.value, c.value), w2), [b, c])

    def test_transpose_add_scale_hadamard(self):
        a = Parameter("a", self.rng.normal(size=(3, 2)))
        b = Parameter("b", self.rng.normal(size=(3, 2)))
        w = self.weight((2, 3))

        def f():
            mixed = ad.add(ad.hadamard(a.value, b.value), ad.scale(b.value, -1.7))
            return scalar_loss(ad.transpose(mixed), w)

        fd_over_all_entries(f, [a, b])

    def test_add_broadcast_bias(self):
        a = Parameter("a", self.rng.normal(size=(4, 3)))
        b = Parameter("b", self.rng.normal(size=3))
        w = self.weight((4, 3))
        fd_over_all_entries(lambda: scalar_loss(ad.add(a.value, b.value), w), [a, b])

    def test_hadamard_scalar_broadcast(self):
        s = Parameter("s", self.rng.normal(size=1))
        h = Parameter("h", self.rng.normal(size=(4, 3)))
        w = self.weight((4, 3))
        fd_over_all_entries(lambda: scalar_loss(ad.hadamard(s.value, h.value), w), [s, h])

    def test_relu_away_from_kink(self):
        x = self.rng.normal(size=(5, 3))
        x = np.where(np.abs(x) < 0.05, 0.5, x)
        p = Parameter("x", x)
        w = self.weight((5, 3))
        fd_over_all_entries(lambda: scalar_loss(ad.relu(p.value), w), [p])

    def test_softmax(self):
        p = Parameter("x", self.rng.normal(size=(3, 4)))
        w = self.weight((3, 4))
        fd_over_all_entries(lambda: scalar_loss(ad.softmax(p.value), w), [p])

    def test_concat(self):
        a = Parameter("a", self.rng.normal(size=(2, 3)))
        b = Parameter("b", self.rng.normal(size=(4, 3)))
        w = self.weight((6, 3))
        fd_over_all_entries(lambda: scalar_loss(ad.concat(a.value, b.value, axis=0), w), [a, b])

    def test_reshape(self):
        p = Parameter("x", self.rng.normal(size=(3, 4)))
        w = self.weight((2, 6))
        fd_over_all_entries(lambda: scalar_loss(ad.reshape(p.value, (2, -1)), w), [p])
        w_flat = self.weight(12)
        fd_over_all_entries(lambda: scalar_loss(ad.reshape(p.value, (-1,)), w_flat), [p])

    def test_conv1d(self):
        x = Parameter("x", self.rng.normal(size=(2, 12)))
        k = Parameter("k", self.rng.normal(size=(3, 2, 4)))
        b = Parameter("b", self.rng.normal(size=3))
        n_out = (12 - 4) // 2 + 1
        w = self.weight((3, n_out))
        fd_over_all_entries(
            lambda: scalar_loss(ad.conv1d(x.value, k.value, b.value, stride=2), w), [x, k, b]
        )

    def test_mean_over_axis(self):
        p = Parameter("x", self.rng.normal(size=(4, 5)))
        w = self.weight(5)
        fd_over_all_entries(lambda: scalar_loss(ad.mean_over_axis(p.value, axis=0), w), [p])
        fd_over_all_entries(lambda: ad.scale(ad.mean_over_axis(p.value, axis=None), 3.3), [p])

    def test_upper_triangle_flatten(self):
        p = Parameter("x", self.rng.normal(size=(4, 4)))
        w = self.weight(10)
        fd_over_all_entries(
            lambda: scalar_loss(ad.upper_triangle_flatten(p.value, include_diagonal=True), w), [p]
        )

    def test_outer_product(self):
        a = Parameter("a", self.rng.normal(size=4))
        w = self.weight((4, 4))
        fd_over_all_entries(lambda: scalar_loss(ad.outer(a.value, a.value), w), [a])

    def test_per_block_norm(self):
        x = Parameter("x", self.rng.normal(size=(7, 3)))
        g = Parameter("g", 1.0 + 0.1 * self.rng.normal(size=3))
        s = Parameter("s", 0.1 * self.rng.normal(size=3))
        blocks = [np.array([0, 1, 2]), np.array([3, 4, 5, 6])]
        w = self.weight((7, 3))
        fd_over_all_entries(
            lambda: scalar_loss(ad.per_block_norm(x.value, g.value, s.value, blocks=blocks), w),
            [x, g, s],
        )

    def test_dropout_with_fixed_stream(self):
        p = Parameter("x", self.rng.normal(size=(5, 4)))
        w = self.weight((5, 4))

        def f():
            # fresh generator per call keeps the mask, and hence f, deterministic
            return scalar_loss(ad.dropout(p.value, 0.4, named_stream(9, "mask"), True), w)

        fd_over_all_entries(f, [p])

    def test_cross_entropy(self):
        raw = self.rng.uniform(0.1, 0.9, size=(6, 2))
        p = Parameter("probs", raw)
        labels = np.array([0, 1, 1, 0, 1, 0])
        fd_over_all_entries(lambda: ad.cross_entropy(p.value, labels), [p])


class TestFiniteDifferenceChecker:
    def test_quadratic_matches_exactly(self):
        theta = Parameter("theta", [3.0])
        report = finite_difference_check(
            lambda: ad.total(ad.hadamard(theta.value, theta.value)), [theta], h=1e-5
        )
        entry = report.entries[0]
        assert abs(entry.analytic - 6.0) < 1e-9
        assert abs(entry.numeric - 6.0) < 1e-9

    def test_relu_kink_is_skipped_and_reported(self):
        theta = Parameter("theta", [0.0])
        report = finite_difference_check(lambda: ad.total(ad.relu(theta.value)), [theta])
        assert len(report.skipped) == 1
        assert report.skipped[0].name == "theta"

    def test_random_two_layer_mlp(self):
        rng = np.random.default_rng(11)
        w1 = Parameter("w1", rng.normal(size=(6, 8)) * 0.5)
        b1 = Parameter("b1", rng.normal(size=8) * 0.1)
        w2 = Parameter("w2", rng.normal(size=(8, 3)) * 0.5)
        b2 = Parameter("b2", rng.normal(size=3) * 0.1)
        x = Tensor(rng.normal(size=6))
        w = rng.normal(size=3)

        def f():
            h = ad.relu(ad.add(ad.matmul(x, w1.value), b1.value))
            return scalar_loss(ad.add(ad.matmul(h, w2.value), b2.value), w)

        report = finite_difference_check(f, [w1, b1, w2, b2], max_entries=50, tolerance=1e-6)
        assert len(report.entries) == 50
        assert not report.skipped
        assert report.passed, report.max_rel_error

    def test_nondeterministic_f_detected(self):
        gen = np.random.default_rng(0)
        p = Parameter("p", [1.0])

        def f():
            return ad.total(ad.hadamard(p.value, Tensor([gen.random()])))

        with pytest.raises(RuntimeError, match="not deterministic"):
            finite_difference_check(f, [p])
