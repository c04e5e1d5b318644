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
from hobnet.ffc import AdamState, adam_step
from hobnet.rng import named_stream

from conftest import params_of
from oracles import affine_composed, bin_means, conv1d_im2col, per_block_norm_loop, relu_where, row_runs, total


def scalar_loss(out: Tensor, weight: np.ndarray) -> Tensor:
    """Reduce an op output to a scalar with a fixed random weighting."""
    return ad.matmul(ad.reshape(out, (-1,)), Tensor(np.ravel(weight)))


def recorded(op, *values):
    """``op``'s output on parameters holding ``values``, and its tape node."""
    with Tape() as tape:
        out = op(*(Parameter(f"p{i}", v) for i, v in enumerate(values)))
    return out, tape.nodes[-1]


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

    def test_a_bare_parameter_has_no_grad_until_backward(self):
        p = Parameter("w", np.ones((2, 2)))
        assert isinstance(p, Tensor) and p.requires_grad and p.grad is None
        with Tape() as tape:
            loss = total(p)
        assert tape.nodes[0].inputs[0] is p
        backward(tape, loss)
        np.testing.assert_array_equal(p.grad, np.ones((2, 2)))


class TestPrimitiveExamples:
    """Hand-checked values for individual primitives."""

    def test_conv1d_identity_like_kernel(self):
        out = ad.conv1d(Tensor([[1.0, 2.0, 3.0]]), Tensor([[[1.0, 0.0]]]), Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_conv1d_sliding_window_sum(self):
        out = ad.conv1d(Tensor([[1.0, 2.0, 3.0]]), Tensor([[[1.0, 1.0]]]), Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    @pytest.mark.parametrize(
        "x, kernel, bias",
        [
            ([1.0, 2.0, 3.0], [[[1.0, 0.0]]], [0.0]),
            ([[1.0, 2.0, 3.0]], [1.0, 0.0], [0.0]),
            ([[1.0, 2.0, 3.0]], [[[1.0, 0.0]]], 0.0),
        ],
        ids=["1-D input", "1-D kernel", "scalar bias"],
    )
    def test_conv1d_refuses_all_but_the_channel_form(self, x, kernel, bias):
        with pytest.raises(ShapeMismatch, match="conv1d"):
            ad.conv1d(Tensor(x), Tensor(kernel), Tensor(bias))

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

    def test_bin_mean_of_near_equal_runs(self):
        out = ad.bin_mean(Tensor([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]]), 3)
        np.testing.assert_array_equal(out.data, [[1.5, 3.5, 6.0]])  # runs of 2, 2, 3

    def test_bin_mean_matches_the_per_bin_loop(self):
        x = Tensor(np.random.default_rng(8).normal(size=(2, 3, 4774)))
        np.testing.assert_allclose(ad.bin_mean(x, 32).data, bin_means(x, 32).data, rtol=1e-13, atol=1e-13)

    def test_bin_mean_with_one_entry_per_bin_is_the_input(self):
        x = Tensor(np.random.default_rng(9).normal(size=(3, 32)))
        assert ad.bin_mean(x, 32).data.tobytes() == x.data.tobytes()

    @pytest.mark.parametrize("shape, bins", [((2, 5), 6), ((2, 5), 0), ((), 1)])
    def test_bin_mean_refuses_bins_it_cannot_fill(self, shape, bins):
        with pytest.raises(ShapeMismatch, match="bin-mean"):
            ad.bin_mean(Tensor(np.ones(shape)), bins)

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

    def test_dropout_at_rate_zero_is_bitwise_identity_and_draws_nothing(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        rng = named_stream(0, "d")
        assert ad.dropout(x, 0.0, rng) is x
        assert rng.random() == named_stream(0, "d").random()

    def test_dropout_rate_validation(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            ad.dropout(x, 1.0, named_stream(0, "d"))
        with pytest.raises(ValueError):
            ad.dropout(x, -0.1, named_stream(0, "d"))

    def test_dropout_train_scaling_preserves_mean(self):
        x = Tensor(np.ones((200, 50)))
        out = ad.dropout(x, 0.3, named_stream(1, "d"))
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-12)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_matches_the_float_mask_form_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x, g = rng.normal(size=(8, 16, 57)), rng.normal(size=(8, 16, 57))
        out, node = recorded(lambda t: ad.dropout(t, 0.3, named_stream(2, "d")), x)
        mask = (named_stream(2, "d").random(x.shape) >= 0.3) / (1.0 - 0.3)
        assert out.data.tobytes() == (x * mask).tobytes()
        assert node.backward(g)[0].tobytes() == (g * mask).tobytes()
        held = [c.cell_contents for c in node.backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert [a.dtype for a in held] == [np.dtype(bool)]

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

    @pytest.mark.parametrize(
        "labels, named",
        [([2], r"\[2\]"), ([0, -1], r"\[-1  0\]"), ([0.5, 1], r"\[0\.5 1\. \]")],
        ids=["two", "minus one", "a half"],
    )
    def test_cross_entropy_label_validation(self, labels, named):
        probs = Tensor(np.full((len(labels), 2), 0.5))
        with pytest.raises(ValueError, match=rf"cross-entropy labels must be 0 or 1, got {named}$"):
            ad.cross_entropy(probs, labels)

    def test_per_block_norm_zero_input_gives_shift(self):
        x = Tensor(np.zeros((4, 3)))
        blocks = ad.RowBlocks([4])
        out = ad.per_block_norm(x, Tensor(np.ones(3)), Tensor([1.0, 2.0, 3.0]), blocks)
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))


class TestPerBlockNorm:
    """The padded-layout norm against the per-block loop, and its refusals."""

    # run lengths: equal runs (a reshape) and unequal runs, one of a single row (a scatter)
    RUNS = {"2x8": [8, 8], "4": [4], "3,4": [3, 4], "3,5,1": [3, 5, 1], "7x28": [28] * 7}

    @pytest.mark.parametrize("lead", [(), (1,), (5,)])
    @pytest.mark.parametrize("name", RUNS)
    def test_matches_the_per_block_loop_byte_for_byte(self, name, lead):
        blocks = ad.RowBlocks(self.RUNS[name])
        m = blocks.m
        rng = np.random.default_rng(m)
        x = rng.normal(size=lead + (m, 16)) * 3.0 + 1.5
        gain, shift = 1.0 + 0.1 * rng.normal(size=16), rng.normal(size=16)
        g = rng.normal(size=x.shape)
        want = per_block_norm_loop(x, gain, shift, blocks, g)
        params = [Parameter(n, v) for n, v in (("x", x), ("gain", gain), ("shift", shift))]
        with Tape() as tape:
            out = ad.per_block_norm(*params, blocks=blocks)
            loss = scalar_loss(out, g)
        backward(tape, loss)
        got = [out.data] + [p.grad for p in params]
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("name", RUNS)
    def test_gather_takes_the_diagonal_blocks_and_scatter_puts_them_back(self, name, lead):
        blocks = ad.RowBlocks(self.RUNS[name])
        a = np.random.default_rng(blocks.m).normal(size=lead + (blocks.m, blocks.m))
        gathered = blocks.gather(a)
        assert gathered.shape == lead + (blocks.shape[0],) + (blocks.shape[1],) * 2
        inside = np.zeros(a.shape, dtype=bool)
        for b, run in enumerate(row_runs(blocks)):
            k = len(run)
            assert gathered[..., b, :k, :k].tobytes() == a[..., run[:, None], run].tobytes()
            assert not gathered[..., b, k:, :].any() and not gathered[..., b, :, k:].any()
            inside[..., run[:, None], run] = True
        assert blocks.scatter(gathered).tobytes() == np.where(inside, a, 0.0).tobytes()

    def test_finite_differences_on_a_batch_of_unequal_blocks(self):
        rng = np.random.default_rng(3)
        x = Parameter("x", rng.normal(size=(2, 9, 3)))
        g = Parameter("g", 1.0 + 0.1 * rng.normal(size=3))
        s = Parameter("s", 0.1 * rng.normal(size=3))
        blocks = ad.RowBlocks(self.RUNS["3,5,1"][::-1])
        w = rng.normal(size=(2, 9, 3))
        fd_over_all_entries(
            lambda: scalar_loss(ad.per_block_norm(x, g, s, blocks=blocks), w),
            [x, g, s],
        )

    @pytest.mark.parametrize(
        "sizes", [[], [3, 0, 2], [2, -1]], ids=["no runs", "empty run", "negative length"]
    )
    def test_runs_of_length_below_one_or_none_are_refused(self, sizes):
        with pytest.raises(ShapeMismatch, match=r"runs of length >= 1, got \["):
            ad.RowBlocks(sizes)

    def test_a_partition_of_other_rows_is_refused(self):
        x, ones = Tensor(np.zeros((2, 4, 2))), Tensor(np.ones(2))
        with pytest.raises(ShapeMismatch, match="partition 3 node rows, got 4"):
            ad.per_block_norm(x, ones, ones, ad.RowBlocks([2, 1]))


def assert_conv1d_matches_im2col(rng, x_shape, kernel_shape, stride):
    """``conv1d``'s output and gradients on random inputs are byte-equal to
    the form that keeps its window matrix."""
    x, kernel = rng.normal(size=x_shape), rng.normal(size=kernel_shape)
    bias = rng.normal(size=kernel_shape[0])
    out, node = recorded(lambda *t: ad.conv1d(*t, stride=stride), x, kernel, bias)
    want, want_backward = conv1d_im2col(x, kernel, bias, stride)
    assert out.data.tobytes() == want.tobytes()
    g = rng.normal(size=out.shape)
    for got, expected in zip(node.backward(g), want_backward(g), strict=True):
        assert got.tobytes() == expected.tobytes()


class TestConv1dWindowMatrix:
    """``conv1d``, which rebuilds its window matrix on backward, against the
    form that keeps it alive on the tape."""

    @pytest.mark.parametrize(
        "x_shape, kernel_shape, stride",
        [
            ((8, 1, 120), (8, 1, 7), 2),
            ((8, 8, 57), (16, 8, 5), 2),
            ((8, 1, 19110), (8, 1, 7), 2),
            ((8, 8, 9552), (16, 8, 5), 2),
            ((2, 40), (3, 2, 4), 2),
            ((4, 2, 30), (3, 2, 4), 1),
            ((5, 1, 12000), (8, 1, 7), 2),
            ((3, 8, 7000), (16, 8, 5), 2),
            ((1, 40000), (8, 1, 7), 2),
        ],
        ids=[
            "acc-train conv0", "acc-train conv1", "196-ROI conv0", "196-ROI conv1", "batchless", "stride 1",
            "chunks of 3 and 2", "one subject over the window budget", "batchless over the window budget",
        ],
    )
    def test_output_and_gradients_are_bit_identical(self, x_shape, kernel_shape, stride):
        assert_conv1d_matches_im2col(np.random.default_rng(11), x_shape, kernel_shape, stride)

    def test_the_chunked_cases_split_as_named(self):
        # one subject's window matrix is 8 bytes x output positions x (c_in * k)
        assert ad.CHUNK_BYTES // (8 * 5997 * 7) == 3
        assert 8 * 3498 * 40 > ad.CHUNK_BYTES and 8 * 19997 * 7 > ad.CHUNK_BYTES
        assert ad.CHUNK_BYTES // (8 * 27 * 40) >= 8

    # one subject's window is 8 x 23 x 15 = 2760 bytes: chunks of 1, 2 and 3
    @pytest.mark.parametrize("budget", [1, 6000, 9000])
    def test_any_window_budget_gives_the_same_bytes(self, monkeypatch, budget):
        monkeypatch.setattr(ad, "CHUNK_BYTES", budget)
        assert_conv1d_matches_im2col(np.random.default_rng(12), (7, 3, 50), (4, 3, 5), 2)


class TestAffineAgainstMatmulThenAdd:
    """``affine``'s single node against ``add(matmul(x, w), b)``, byte for byte."""

    @pytest.mark.parametrize("x_shape", [(5,), (4, 5), (3, 4, 5)], ids=["row", "matrix", "stack"])
    def test_output_and_every_gradient_are_byte_equal(self, x_shape):
        rng = np.random.default_rng(15)
        values = [rng.normal(size=x_shape), rng.normal(size=(5, 3)), rng.normal(size=3)]
        weight = rng.normal(size=x_shape[:-1] + (3,))
        runs = [run_with_grads(op, values, weight) for op in (ad.affine, affine_composed)]
        (out, grads), (want, want_grads) = runs
        assert out.tobytes() == want.tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [((4, 5), (6, 3), (3,)), ((4, 5), (5, 3), (4, 3)), ((4, 5), (5,), ()), ((), (1, 3), (3,))],
        ids=["inner", "bias", "vector weight", "scalar input"],
    )
    def test_shapes_it_cannot_map_are_refused(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeMismatch, match="affine: cannot map"):
            ad.affine(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


class TestReluWithoutMask:
    """``relu``, which reads its backward mask off its output, against the
    ``np.where`` form that keeps a bool mask."""

    def test_output_and_gradient_are_bit_identical_at_signed_zeros_and_extremes(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [-0.0, 0.0, tiny, -tiny, 1e-310, -1e-310, 1e308, -1e308, 1.0, -1.0]
        rng = np.random.default_rng(13)
        x = np.concatenate([special, rng.normal(size=246)]).reshape(4, 64)
        g = rng.normal(size=x.shape)
        g[:, :10] = -1.0  # a zeroed negative gradient keeps the sign of zero
        out, node = recorded(ad.relu, x)
        want, want_backward = relu_where(x)
        assert out.data.tobytes() == want.tobytes()
        assert node.backward(g)[0].tobytes() == want_backward(g)[0].tobytes()

    def test_the_backward_holds_no_array_but_the_output(self):
        x = np.random.default_rng(14).normal(size=(8, 16, 57))
        _, node = recorded(ad.relu, x)
        held = [c.cell_contents for c in node.backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert len(held) == 1 and held[0] is node.output.data


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        p = Parameter("p", [1.0, 2.0, 3.0])
        with Tape() as tape:
            loss = total(p)
        backward(tape, loss)
        np.testing.assert_allclose(p.grad, [1.0, 1.0, 1.0], atol=1e-12)

    def test_quadratic_gradient(self):
        p = Parameter("p", [1.0, 2.0])
        with Tape() as tape:
            loss = total(ad.hadamard(p, p))
        backward(tape, loss)
        np.testing.assert_allclose(p.grad, [2.0, 4.0], atol=1e-12)

    def test_unreachable_parameter_keeps_zero_grad(self):
        params = params_of({"used": [2.0], "unused": [5.0]})
        params.zero_grad()
        with Tape() as tape:
            loss = total(ad.hadamard(params["used"], params["used"]))
        backward(tape, loss)
        np.testing.assert_array_equal(params.grad, [4.0, 0.0])
        assert np.shares_memory(params["unused"].grad, params.grad)

    def test_double_backward_is_an_error(self):
        p = Parameter("p", [1.0])
        with Tape() as tape:
            loss = total(p)
        backward(tape, loss)
        with pytest.raises(TapeError, match="already ran"):
            backward(tape, loss)

    def test_non_scalar_loss_is_an_error(self):
        p = Parameter("p", [1.0, 2.0])
        with Tape() as tape:
            out = ad.relu(p)
        with pytest.raises(TapeError, match="scalar"):
            backward(tape, out)

    def test_matmul_grad_shape_duality(self):
        a = Parameter("a", np.random.default_rng(0).normal(size=(3, 4)))
        b = Parameter("b", np.random.default_rng(1).normal(size=(4, 2)))
        with Tape() as tape:
            loss = total(ad.matmul(a, b))
        backward(tape, loss)
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape

    def test_reused_tensor_accumulates_both_paths(self):
        p = Parameter("p", [3.0])
        with Tape() as tape:
            loss = total(ad.add(ad.hadamard(p, p), p))
        backward(tape, loss)
        np.testing.assert_allclose(p.grad, [7.0], atol=1e-12)

    def test_no_recording_without_tape(self):
        p = Parameter("p", [1.0])
        out = ad.relu(p)
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
        fd_over_all_entries(lambda: scalar_loss(ad.matmul(a, b), w), [a, b])

    def test_matmul_vector_forms(self):
        a = Parameter("a", self.rng.normal(size=4))
        b = Parameter("b", self.rng.normal(size=(4, 3)))
        w = self.weight(3)
        fd_over_all_entries(lambda: scalar_loss(ad.matmul(a, b), w), [a, b])
        c = Parameter("c", self.rng.normal(size=3))
        w2 = self.weight(4)
        fd_over_all_entries(lambda: scalar_loss(ad.matmul(b, c), w2), [b, c])

    def test_transpose_add_scale_hadamard(self):
        a = Parameter("a", self.rng.normal(size=(3, 2)))
        b = Parameter("b", self.rng.normal(size=(3, 2)))
        w = self.weight((2, 3))

        def f():
            mixed = ad.add(ad.hadamard(a, b), ad.scale(b, -1.7))
            return scalar_loss(ad.transpose(mixed), w)

        fd_over_all_entries(f, [a, b])

    def test_add_broadcast_bias(self):
        a = Parameter("a", self.rng.normal(size=(4, 3)))
        b = Parameter("b", self.rng.normal(size=3))
        w = self.weight((4, 3))
        fd_over_all_entries(lambda: scalar_loss(ad.add(a, b), w), [a, b])

    def test_hadamard_scalar_broadcast(self):
        s = Parameter("s", self.rng.normal(size=1))
        h = Parameter("h", self.rng.normal(size=(4, 3)))
        w = self.weight((4, 3))
        fd_over_all_entries(lambda: scalar_loss(ad.hadamard(s, h), w), [s, h])

    def test_relu_away_from_kink(self):
        x = self.rng.normal(size=(5, 3))
        x = np.where(np.abs(x) < 0.05, 0.5, x)
        p = Parameter("x", x)
        w = self.weight((5, 3))
        fd_over_all_entries(lambda: scalar_loss(ad.relu(p), w), [p])

    def test_softmax(self):
        p = Parameter("x", self.rng.normal(size=(3, 4)))
        w = self.weight((3, 4))
        fd_over_all_entries(lambda: scalar_loss(ad.softmax(p), w), [p])

    def test_concat(self):
        a = Parameter("a", self.rng.normal(size=(2, 3)))
        b = Parameter("b", self.rng.normal(size=(4, 3)))
        w = self.weight((6, 3))
        fd_over_all_entries(lambda: scalar_loss(ad.concat(a, b, axis=0), w), [a, b])

    def test_reshape(self):
        p = Parameter("x", self.rng.normal(size=(3, 4)))
        w = self.weight((2, 6))
        fd_over_all_entries(lambda: scalar_loss(ad.reshape(p, (2, -1)), w), [p])
        w_flat = self.weight(12)
        fd_over_all_entries(lambda: scalar_loss(ad.reshape(p, (-1,)), w_flat), [p])

    def test_conv1d(self):
        x = Parameter("x", self.rng.normal(size=(2, 12)))
        k = Parameter("k", self.rng.normal(size=(3, 2, 4)))
        b = Parameter("b", self.rng.normal(size=3))
        n_out = (12 - 4) // 2 + 1
        w = self.weight((3, n_out))
        fd_over_all_entries(
            lambda: scalar_loss(ad.conv1d(x, k, b, stride=2), w), [x, k, b]
        )

    def test_mean_over_axis(self):
        p = Parameter("x", self.rng.normal(size=(4, 5)))
        w = self.weight(5)
        fd_over_all_entries(lambda: scalar_loss(ad.mean_over_axis(p), w), [p])

    @pytest.mark.parametrize(
        "shape, bins",
        [((2, 64), 32), ((4774,), 32), ((3, 2, 45), 8), ((2, 32), 32)],
        ids=["divisible", "bins of 149 and 150", "batch axis", "one entry per bin"],
    )
    def test_bin_mean(self, shape, bins):
        p = Parameter("x", self.rng.normal(size=shape))
        w = self.weight(shape[:-1] + (bins,))
        fd_over_all_entries(lambda: scalar_loss(ad.bin_mean(p, bins), w), [p])

    def test_upper_triangle_flatten(self):
        p = Parameter("x", self.rng.normal(size=(4, 4)))
        w = self.weight(10)
        fd_over_all_entries(lambda: scalar_loss(ad.upper_triangle_flatten(p), w), [p])

    def test_outer_product(self):
        a = Parameter("a", self.rng.normal(size=4))
        w = self.weight((4, 4))
        fd_over_all_entries(lambda: scalar_loss(ad.outer(a, a), w), [a])

    def test_per_block_norm(self):
        x = Parameter("x", self.rng.normal(size=(7, 3)))
        g = Parameter("g", 1.0 + 0.1 * self.rng.normal(size=3))
        s = Parameter("s", 0.1 * self.rng.normal(size=3))
        blocks = ad.RowBlocks([3, 4])
        w = self.weight((7, 3))
        fd_over_all_entries(
            lambda: scalar_loss(ad.per_block_norm(x, g, s, blocks=blocks), w),
            [x, g, s],
        )

    def test_dropout_with_fixed_stream(self):
        p = Parameter("x", self.rng.normal(size=(5, 4)))
        w = self.weight((5, 4))

        def f():
            # fresh generator per call keeps the mask, and hence f, deterministic
            return scalar_loss(ad.dropout(p, 0.4, named_stream(9, "mask")), w)

        fd_over_all_entries(f, [p])

    def test_cross_entropy(self):
        raw = self.rng.uniform(0.1, 0.9, size=(6, 2))
        p = Parameter("probs", raw)
        labels = np.array([0, 1, 1, 0, 1, 0])
        fd_over_all_entries(lambda: ad.cross_entropy(p, labels), [p])


class TestFiniteDifferenceChecker:
    def test_quadratic_matches_exactly(self):
        theta = Parameter("theta", [3.0])
        report = finite_difference_check(
            lambda: total(ad.hadamard(theta, theta)), [theta], h=1e-5
        )
        entry = report.entries[0]
        assert abs(entry.analytic - 6.0) < 1e-9
        assert abs(entry.numeric - 6.0) < 1e-9

    def test_relu_kink_is_skipped_and_reported(self):
        theta = Parameter("theta", [0.0])
        report = finite_difference_check(lambda: total(ad.relu(theta)), [theta])
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
            h = ad.relu(ad.add(ad.matmul(x, w1), b1))
            return scalar_loss(ad.add(ad.matmul(h, w2), b2), w)

        report = finite_difference_check(f, [w1, b1, w2, b2], max_entries=50, tolerance=1e-6)
        assert len(report.entries) == 50
        assert not report.skipped
        assert report.passed, report.max_rel_error

    def test_a_model_keeps_its_gradient_buffer_through_the_check(self):
        rng = np.random.default_rng(15)
        params = params_of({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2), "unused": [1.0]})
        x, weight = Tensor(rng.normal(size=3)), rng.normal(size=2)
        params.zero_grad()
        params.grad.fill(5.0)  # a stale gradient the check must zero where it lies
        report = finite_difference_check(
            lambda: scalar_loss(ad.add(ad.matmul(x, params["w"]), params["b"]), weight), params.parameters()
        )
        assert report.passed, report.max_rel_error
        for p in params.parameters():
            assert np.shares_memory(p.grad, params.grad), p.name
        for e in report.entries:
            assert params[e.name].grad[e.index] == e.analytic
        assert params["unused"].grad[0] == 0.0
        # the next step reads the same buffer: Adam's first step is -lr * sign(g)
        before = params.data.copy()
        adam_step(AdamState(params), 0.1)
        np.testing.assert_allclose(params.data - before, -0.1 * np.sign(params.grad), rtol=0, atol=1e-6)

    def test_nondeterministic_f_detected(self):
        gen = np.random.default_rng(0)
        p = Parameter("p", [1.0])

        def f():
            return ad.matmul(p, Tensor([gen.random()]))

        with pytest.raises(RuntimeError, match="not deterministic"):
            finite_difference_check(f, [p])


# (name, op, operand shapes without the batch axis, whether each operand is stacked)
BLOCKS = ad.RowBlocks([3, 4])
BATCHED_FORMS = [
    ("matmul-shared-matrix", ad.matmul, [(4, 5), (5, 2)], [True, False]),
    ("matmul-shared-vector", ad.matmul, [(4, 5), (5,)], [True, False]),
    ("matmul-stacked-rhs", ad.matmul, [(4, 5), (5, 2)], [True, True]),
    ("affine", ad.affine, [(4, 5), (5, 2), (2,)], [True, False, False]),
    ("transpose", ad.transpose, [(4, 2)], [True]),
    ("mean-over-axis", ad.mean_over_axis, [(4, 5)], [True]),
    ("bin-mean", lambda x: ad.bin_mean(x, 4), [(2, 13)], [True]),
    ("upper-triangle-flatten", ad.upper_triangle_flatten, [(4, 4)], [True]),
    ("outer", ad.outer, [(4,), (5,)], [True, True]),
    (
        "per-block-norm",
        lambda x, g, s: ad.per_block_norm(x, g, s, blocks=BLOCKS),
        [(7, 3), (3,), (3,)],
        [True, False, False],
    ),
    (
        "conv1d",
        lambda x, k, b: ad.conv1d(x, k, b, stride=2),
        [(2, 12), (3, 2, 4), (3,)],
        [True, False, False],
    ),
]


def run_with_grads(op, values, weight):
    """Forward value and every operand's gradient under a fixed scalar weighting."""
    params = [Parameter(f"p{i}", v) for i, v in enumerate(values)]
    with Tape() as tape:
        out = op(*params)
        loss = scalar_loss(out, weight)
    backward(tape, loss)
    return out.data, [p.grad for p in params]


@pytest.mark.parametrize(
    "op, shapes, stacked", [case[1:] for case in BATCHED_FORMS], ids=[c[0] for c in BATCHED_FORMS]
)
class TestBatchedPrimitives:
    """Every primitive the model stacks subjects through, in its batched form."""

    def operands(self, shapes, stacked, batch, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=((batch,) if s else ()) + shape) for shape, s in zip(shapes, stacked)]

    def test_finite_differences(self, op, shapes, stacked):
        params = [Parameter(f"p{i}", v) for i, v in enumerate(self.operands(shapes, stacked, 3))]
        out = op(*params)
        weight = np.random.default_rng(1).normal(size=out.shape)
        fd_over_all_entries(lambda: scalar_loss(op(*params), weight), params)

    def test_a_batch_of_one_is_the_unbatched_form_bit_for_bit(self, op, shapes, stacked):
        single = self.operands(shapes, stacked, 1)
        plain = [v[0] if s else v for v, s in zip(single, stacked)]
        out_plain = op(*(Tensor(v) for v in plain))
        weight = np.random.default_rng(2).normal(size=out_plain.shape)
        value, grads = run_with_grads(op, single, weight[None])
        value_plain, grads_plain = run_with_grads(op, plain, weight)
        assert value.shape == (1,) + value_plain.shape
        assert value[0].tobytes() == value_plain.tobytes()
        for g, g_plain, s in zip(grads, grads_plain, stacked):
            assert (g[0] if s else g).tobytes() == g_plain.tobytes()

    def test_each_row_of_a_batch_is_its_own_subject(self, op, shapes, stacked):
        values = self.operands(shapes, stacked, 3, seed=4)
        out = op(*(Tensor(v) for v in values)).data
        for b in range(3):
            row = op(*(Tensor(v[b] if s else v) for v, s in zip(values, stacked))).data
            np.testing.assert_allclose(out[b], row, rtol=1e-13, atol=1e-13)


CONSTANT_INPUT_FORMS = [
    case for case in BATCHED_FORMS if case[0] in ("matmul-shared-matrix", "matmul-stacked-rhs", "affine", "conv1d")
]


@pytest.mark.parametrize("constant", [0, 1], ids=["constant input", "constant weight"])
@pytest.mark.parametrize(
    "op, shapes, stacked", [case[1:] for case in CONSTANT_INPUT_FORMS], ids=[c[0] for c in CONSTANT_INPUT_FORMS]
)
class TestConstantInputs:
    """``matmul``, ``affine`` and ``conv1d`` compute no gradient for an input
    that does not require one; the parameters' gradients keep their bytes."""

    def test_the_constant_gets_none_and_each_parameter_its_gradient(self, op, shapes, stacked, constant):
        rng = np.random.default_rng(21)
        values = [rng.normal(size=((3,) if s else ()) + shape) for shape, s in zip(shapes, stacked)]
        inputs = [Tensor(v) if i == constant else Parameter(f"p{i}", v) for i, v in enumerate(values)]
        with Tape() as tape:
            out = op(*inputs)
        weight = rng.normal(size=out.shape)
        grads = tape.nodes[-1].backward(weight)
        assert grads[constant] is None
        _, every_grad = run_with_grads(op, values, weight)
        for i, g in enumerate(grads):
            if i != constant:
                assert g.tobytes() == every_grad[i].tobytes(), f"operand {i}"

    def test_finite_differences_over_the_parameters(self, op, shapes, stacked, constant):
        rng = np.random.default_rng(22)
        values = [rng.normal(size=((3,) if s else ()) + shape) for shape, s in zip(shapes, stacked)]
        inputs = [Tensor(v) if i == constant else Parameter(f"p{i}", v) for i, v in enumerate(values)]
        weight = rng.normal(size=op(*inputs).shape)
        params = [t for t in inputs if isinstance(t, Parameter)]
        fd_over_all_entries(lambda: scalar_loss(op(*inputs), weight), params)
