"""Euclidean branch: vectorization, convolution stack, outer-product pooling."""

import numpy as np
import pytest

from hobnet import autodiff as ad
from hobnet.autodiff import Parameter, ShapeMismatch, Tape, Tensor, backward, finite_difference_check
from hobnet.connectivity import pearson_fc
from hobnet.ffc import ModelConfig, build_model_params, init_params, parse_toggles
from hobnet.harness import nested_hierarchy, synth_generate
from hobnet.hcnn import (
    POOL_BINS,
    HcnnConfig,
    HcnnError,
    dr_flatten,
    hcnn_first_order,
    hop_concat,
)
from hobnet.layers import mlp_layout

from conftest import params_of, random_timeseries
from oracles import bin_means, dr_unflatten, hcnn_whole_stack, total, traced_peak


class TestDrFlatten:
    def test_three_by_three(self):
        m = np.array([[1.0, 0.2, 0.3], [0.2, 1.0, 0.4], [0.3, 0.4, 1.0]])
        np.testing.assert_array_equal(dr_flatten(m), [0.2, 0.3, 0.4])

    def test_length_is_n_choose_two(self):
        m = np.eye(4)
        assert dr_flatten(m).shape == (6,)

    def test_roundtrip_through_unflatten(self):
        fc = pearson_fc([random_timeseries(5, seed=0)])[0]
        flat = dr_flatten(fc)
        back = dr_unflatten(flat, 5)
        off = ~np.eye(5, dtype=bool)
        np.testing.assert_array_equal(back[off], fc[off])

    def test_too_small_matrix_is_an_error(self):
        with pytest.raises(HcnnError, match="at least 2"):
            dr_flatten(np.ones((1, 1)))


def branch_params(cfg_hcnn, fc_len, seed=0):
    cfg = ModelConfig(toggles=parse_toggles("HCNN"), hcnn=cfg_hcnn)
    return cfg, build_model_params(cfg, {}, fc_len=fc_len, seed=seed)


class TestFirstOrder:
    def test_zero_input_zero_biases_gives_zero(self):
        cfg_hcnn = HcnnConfig(kernel_sizes=(3, 3), channels=(2, 3), strides=(1, 1), mlp_hidden=(8,), out_dim=4)
        cfg, params = branch_params(cfg_hcnn, fc_len=20)
        x = Tensor(np.zeros((1, 20)))
        out = hcnn_first_order(params, "hcnn", x, cfg_hcnn)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_pointwise_kernel_identity_mlp_passes_input(self):
        k = 6
        cfg_hcnn = HcnnConfig(kernel_sizes=(1, 1), channels=(1, 1), strides=(1, 1), mlp_hidden=(), out_dim=k)
        store = params_of({
            "hcnn.conv0.w": np.ones((1, 1, 1)), "hcnn.conv0.b": np.zeros(1),
            "hcnn.conv1.w": np.ones((1, 1, 1)), "hcnn.conv1.b": np.zeros(1),
            "hcnn.mlp.l0.w": np.eye(k), "hcnn.mlp.l0.b": np.zeros(k),
        })
        x = np.abs(np.random.default_rng(1).normal(size=(1, k))) + 0.1
        out = hcnn_first_order(store, "hcnn", Tensor(x), cfg_hcnn)
        np.testing.assert_allclose(out.data, x[0], atol=1e-12)

    def test_matches_layer_by_layer_oracle(self):
        cfg_hcnn = HcnnConfig(kernel_sizes=(5, 3), channels=(3, 4), strides=(2, 1), mlp_hidden=(7,), out_dim=5)
        cfg, params = branch_params(cfg_hcnn, fc_len=24, seed=3)
        x = np.random.default_rng(2).normal(size=(1, 24))
        out = hcnn_first_order(params, "hcnn", Tensor(x), cfg_hcnn).data

        def conv(inp, w, b, stride):
            c_out, c_in, k = w.shape
            n = (inp.shape[1] - k) // stride + 1
            res = np.zeros((c_out, n))
            for o in range(c_out):
                for i in range(n):
                    res[o, i] = np.sum(w[o] * inp[:, i * stride : i * stride + k]) + b[o]
            return res

        h = np.maximum(conv(x, params["hcnn.conv0.w"].data, params["hcnn.conv0.b"].data, 2), 0.0)
        h = np.maximum(conv(h, params["hcnn.conv1.w"].data, params["hcnn.conv1.b"].data, 1), 0.0)
        flat = h.reshape(-1)
        h1 = np.maximum(flat @ params["hcnn.mlp.l0.w"].data + params["hcnn.mlp.l0.b"].data, 0.0)
        expected = h1 @ params["hcnn.mlp.l1.w"].data + params["hcnn.mlp.l1.b"].data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_kernel_longer_than_input_is_an_error(self):
        cfg_hcnn = HcnnConfig(kernel_sizes=(9, 5), channels=(2, 2), strides=(2, 2))
        with pytest.raises(HcnnError, match="exceeds"):
            cfg_hcnn.conv_output_length(6)


class TestPool:
    """The conv output's fixed-length readout."""

    @pytest.mark.parametrize("rois", [116, 196, 246])
    def test_the_readout_width_does_not_grow_with_the_atlas(self, rois):
        _, params = branch_params(HcnnConfig(out_dim=16), fc_len=rois * (rois - 1) // 2)
        assert params["hcnn.mlp.l0.w"].data.shape == (16 * POOL_BINS, 128)

    def test_an_output_no_longer_than_the_bins_is_read_unpooled(self):
        # 16 ROIs: 120 FC entries, 57 after the first conv, 27 after the second
        cfg_hcnn = HcnnConfig(out_dim=16)
        _, params = branch_params(cfg_hcnn, fc_len=120)
        assert params["hcnn.mlp.l0.w"].data.shape == (16 * 27, 128)
        x = Parameter("x", np.random.default_rng(4).normal(size=(1, 120)))
        with Tape() as tape:
            hcnn_first_order(params, "hcnn", x, cfg_hcnn)
        assert "bin-mean" not in {node.op for node in tape.nodes}

    def test_a_longer_output_is_pooled_before_the_mlp(self):
        cfg_hcnn = HcnnConfig(kernel_sizes=(3, 3), channels=(2, 3), strides=(1, 1), mlp_hidden=(), out_dim=4)
        _, params = branch_params(cfg_hcnn, fc_len=104, seed=2)
        x = np.random.default_rng(3).normal(size=(2, 1, 104))
        out = hcnn_first_order(params, "hcnn", Tensor(x), cfg_hcnn).data
        h = Tensor(x)
        for i in range(2):
            h = ad.relu(ad.conv1d(h, params[f"hcnn.conv{i}.w"], params[f"hcnn.conv{i}.b"]))
        pooled = bin_means(h, POOL_BINS).data.reshape(2, -1)
        expected = pooled @ params["hcnn.mlp.l0.w"].data + params["hcnn.mlp.l0.b"].data
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module")
def atlas_fc():
    """The FC vectors ``[8, 1, 19110]`` of 8 subjects at 196 ROIs."""
    cohort = synth_generate(8, nested_hierarchy(7, 4, 7), seed=1)
    return dr_flatten(pearson_fc([s.timeseries for s in cohort.subjects]))[:, None, :]


def branch_grads(forward, cfg_hcnn, fc, seed=0):
    """Every HCNN parameter's gradient of a fixed weighted sum of the
    branch's output, ``hop_concat`` included, on the stack ``fc``."""
    _, params = branch_params(cfg_hcnn, fc_len=fc.shape[-1], seed=seed)
    w = np.random.default_rng(seed + 1).normal(size=(len(fc), 2 * cfg_hcnn.out_dim))
    with Tape() as tape:
        out = hop_concat(forward(params, "hcnn", Tensor(fc), cfg_hcnn), params, "hcnn.hop")
        loss = total(ad.hadamard(out, Tensor(w)))
    backward(tape, loss)
    return {p.name: p.grad for p in params.parameters() if p.name.startswith("hcnn.")}


class TestConvStackChunks:
    """``hcnn_first_order`` runs the conv stack one row chunk at a time;
    ``oracles.hcnn_whole_stack`` runs each layer over the whole stack."""

    @pytest.mark.parametrize("rois, per_chunk", [(16, 287), (196, 1)])
    def test_the_first_conv_output_sizes_the_chunks(self, rois, per_chunk):
        # 8 bytes x 8 channels x (57 or 9552) first-conv output positions
        chunks = list(HcnnConfig().stack_chunks(600, rois * (rois - 1) // 2))
        assert chunks[0] == slice(0, per_chunk)
        assert chunks[-1].stop == 600

    @pytest.mark.parametrize("n", [6, 8])
    def test_an_atlas_scale_forward_is_byte_equal_to_the_whole_stack(self, atlas_fc, n):
        cfg_hcnn = HcnnConfig()
        _, params = branch_params(cfg_hcnn, fc_len=atlas_fc.shape[-1])
        fc = atlas_fc[:n]
        out = hcnn_first_order(params, "hcnn", Tensor(fc), cfg_hcnn).data
        assert out.tobytes() == hcnn_whole_stack(params, "hcnn", Tensor(fc), cfg_hcnn).data.tobytes()

    def test_a_forced_chunk_boundary_at_16_rois_is_byte_equal(self, monkeypatch):
        # each first-conv output is 8 x 8 x 57 bytes: chunks of 3, 3, 3 and 1
        monkeypatch.setattr(ad, "CHUNK_BYTES", 3 * 8 * 8 * 57)
        cfg_hcnn = HcnnConfig(out_dim=16)
        assert [c.stop - c.start for c in cfg_hcnn.stack_chunks(10, 120)] == [3, 3, 3, 1]
        _, params = branch_params(cfg_hcnn, fc_len=120, seed=2)
        fc = np.random.default_rng(5).normal(size=(10, 1, 120))
        with Tape() as tape:
            out = hcnn_first_order(params, "hcnn", Tensor(fc), cfg_hcnn)
        assert [node.op for node in tape.nodes].count("concat") == 1
        assert out.data.tobytes() == hcnn_whole_stack(params, "hcnn", Tensor(fc), cfg_hcnn).data.tobytes()

    def test_one_chunk_records_the_whole_stack_tape(self):
        # a 16-ROI mini-batch: no row slice of the constant input, no concat
        cfg_hcnn = HcnnConfig(out_dim=16)
        _, params = branch_params(cfg_hcnn, fc_len=120)
        fc = np.random.default_rng(6).normal(size=(8, 1, 120))
        ops = []
        for forward in (hcnn_first_order, hcnn_whole_stack):
            with Tape() as tape:
                forward(params, "hcnn", Tensor(fc), cfg_hcnn)
            ops.append([node.op for node in tape.nodes])
        assert ops[0] == ops[1]


class TestChunkGradients:
    def test_gradients_across_chunks_match_finite_differences(self, monkeypatch):
        # 10 ROIs: 45 FC entries, 20 first-conv positions of 3 channels,
        # 480 bytes per subject: chunks of 2 and 1
        monkeypatch.setattr(ad, "CHUNK_BYTES", 2 * 480)
        cfg_hcnn = HcnnConfig(kernel_sizes=(7, 5), channels=(3, 4), strides=(2, 2), mlp_hidden=(12,), out_dim=6)
        assert len(list(cfg_hcnn.stack_chunks(3, 45))) == 2
        ts = [random_timeseries(10, n_timepoints=40, seed=s) for s in range(3)]
        x = Parameter("x", dr_flatten(pearson_fc(ts))[:, None, :])
        _, params = branch_params(cfg_hcnn, fc_len=45, seed=7)
        w = Tensor(np.random.default_rng(8).normal(size=(3, 6)))

        def f():
            return total(ad.hadamard(hcnn_first_order(params, "hcnn", x, cfg_hcnn), w))

        # the input too: each chunk's rows reach it through a row slice
        branch = [p for p in params.parameters() if p.name.startswith(("hcnn.conv", "hcnn.mlp"))]
        report = finite_difference_check(f, branch + [x], h=1e-5, tolerance=1e-4)
        assert not report.skipped
        assert report.passed, f"max rel error {report.max_rel_error}"

    def test_an_atlas_scale_mini_batch_agrees_with_the_whole_stack_within_1e12(self, atlas_fc):
        # each subject is a chunk: the kernel and bias gradients are sums of
        # eight per-subject products, not one product over the batch
        got = branch_grads(hcnn_first_order, HcnnConfig(), atlas_fc)
        want = branch_grads(hcnn_whole_stack, HcnnConfig(), atlas_fc)
        assert list(got) == list(want)
        for name in want:
            assert np.abs(want[name]).max() > 0, name
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12, err_msg=name)

    def test_an_acceptance_scale_mini_batch_gives_the_whole_stack_bytes(self):
        fc = np.random.default_rng(9).normal(size=(8, 1, 120))
        got = branch_grads(hcnn_first_order, HcnnConfig(out_dim=16), fc)
        want = branch_grads(hcnn_whole_stack, HcnnConfig(out_dim=16), fc)
        assert {n: g.tobytes() for n, g in got.items()} == {n: g.tobytes() for n, g in want.items()}


class TestMemory:
    @pytest.fixture(scope="class")
    def atlas_eval(self, atlas_fc):
        """An eval forward of 8 subjects at 196 ROIs (19,110 FC entries
        each): its output and traced peak."""
        cfg_hcnn = HcnnConfig()
        _, params = branch_params(cfg_hcnn, fc_len=atlas_fc.shape[-1])
        out, peak, _ = traced_peak(lambda: hcnn_first_order(params, "hcnn", Tensor(atlas_fc), cfg_hcnn))
        return out, peak

    def test_an_atlas_scale_eval_forward_holds_each_window_matrix_only_for_its_product(self, atlas_eval):
        # the second conv's window matrix (12.2 MiB for 8 subjects in one
        # matrix) is freed before its output is copied
        out, peak = atlas_eval
        assert out.shape == (8, HcnnConfig().out_dim)
        assert peak < 23 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_an_atlas_scale_eval_forward_builds_its_window_matrices_a_subject_at_a_time(self, atlas_eval):
        # at 196 ROIs each subject's window matrix is a chunk of its own, and
        # each conv input is freed before the ReLU makes its output: 11.4 MiB
        # traced with each conv run over the whole stack, 21.0 with one
        # window matrix per batch
        _, peak = atlas_eval
        assert peak < 13 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_an_atlas_scale_eval_forward_peaks_as_one_subject(self, atlas_eval):
        # the conv stack runs a subject at a time, so only one subject's
        # conv outputs exist at once: 3.24 MiB traced for 8 subjects, 3.21
        # for one, from 11.37 with each conv run over the whole stack
        _, peak = atlas_eval
        assert peak < 4 << 20, f"peak {peak / 2**20:.2f} MiB"


def flatten_channels_by_selectors(x: Tensor) -> Tensor:
    """The former channel flatten: one eye-row matmul per channel, then a concat."""
    eye = np.eye(x.shape[0])
    return ad.concat(*[ad.matmul(Tensor(eye[i]), x) for i in range(x.shape[0])])


class TestChannelFlatten:
    def test_reshape_is_bit_identical_to_selector_rows(self):
        rng = np.random.default_rng(9)
        x = Parameter("x", rng.normal(size=(16, 13)))
        kernel = Tensor(rng.normal(size=(16, 16, 3)))
        bias = Tensor(rng.normal(size=16))
        w = Tensor(rng.normal(size=16 * 11))
        values, grads = [], []
        for flatten in (lambda h: ad.reshape(h, (-1,)), flatten_channels_by_selectors):
            x.grad = None
            with Tape() as tape:
                flat = flatten(ad.relu(ad.conv1d(x, kernel, bias)))
                loss = ad.matmul(flat, w)
            backward(tape, loss)
            values.append(flat.data.tobytes())
            grads.append(x.grad.tobytes())
        assert values[0] == values[1]
        assert grads[0] == grads[1]


class TestHop:
    """The HCNN's high-order pooling: the outer product of the first-order
    vector (or of each row) with itself."""

    def test_zero_vector_gives_zero_matrix(self):
        z = Tensor(np.zeros(3))
        np.testing.assert_array_equal(ad.outer(z, z).data, np.zeros((3, 3)))

    def test_matches_double_loop_oracle(self):
        z = np.random.default_rng(3).normal(size=5)
        out = ad.outer(Tensor(z), Tensor(z)).data
        for i in range(5):
            for j in range(5):
                assert out[i, j] == pytest.approx(z[i] * z[j], abs=1e-12)

    def test_symmetric_with_rank_at_most_one(self):
        for seed in range(10):
            z = np.random.default_rng(seed).normal(size=6)
            out = ad.outer(Tensor(z), Tensor(z)).data
            np.testing.assert_array_equal(out, out.T)
            eigvals = np.sort(np.abs(np.linalg.eigvalsh(out)))
            assert np.all(eigvals[:-1] <= 1e-10)

    def test_rows_are_a_batch_of_vectors(self):
        z = np.random.default_rng(11).normal(size=(3, 4))
        out = ad.outer(Tensor(z), Tensor(z)).data
        assert out.shape == (3, 4, 4)
        for row, vector in zip(out, z):
            np.testing.assert_array_equal(row, ad.outer(Tensor(vector), Tensor(vector)).data)

    def test_rejects_stacks_of_matrices(self):
        z = Tensor(np.zeros((2, 2, 2)))
        with pytest.raises(ShapeMismatch, match="vectors or rows"):
            ad.outer(z, z)


class TestHopConcat:
    def build(self, d, seed=0):
        tri = d * (d + 1) // 2
        return init_params(mlp_layout("hop", [tri, d, d]), seed)

    def test_zero_input_gives_zero_vector_of_double_width(self):
        d = 4
        store = self.build(d)
        out = hop_concat(Tensor(np.zeros(d)), store, "hop")
        np.testing.assert_array_equal(out.data, np.zeros(2 * d))

    def test_output_length_is_two_d(self):
        d = 5
        store = self.build(d)
        z = np.random.default_rng(4).normal(size=d)
        assert hop_concat(Tensor(z), store, "hop").shape == (2 * d,)

    def test_matches_stepwise_oracle(self):
        d = 3
        store = self.build(d, seed=5)
        z = np.random.default_rng(5).normal(size=d)
        out = hop_concat(Tensor(z), store, "hop").data
        outer = np.outer(z, z)
        rows, cols = np.triu_indices(d, k=0)
        flat = outer[rows, cols]
        h = np.maximum(flat @ store["hop.l0.w"].data + store["hop.l0.b"].data, 0.0)
        high = h @ store["hop.l1.w"].data + store["hop.l1.b"].data
        np.testing.assert_allclose(out, np.concatenate([z, high]), atol=1e-12)


class TestCnnBranchGradients:
    def test_branch_gradients_match_finite_differences(self):
        ts = random_timeseries(10, n_timepoints=40, seed=6)
        fc_vec = dr_flatten(pearson_fc([ts])[0])
        cfg_hcnn = HcnnConfig(kernel_sizes=(7, 5), channels=(3, 4), strides=(2, 2), mlp_hidden=(12,), out_dim=6)
        cfg, params = branch_params(cfg_hcnn, fc_len=fc_vec.size, seed=7)
        x = Tensor(fc_vec[None, :])
        rng = np.random.default_rng(8)
        w = rng.normal(size=2 * 6)

        from hobnet.hcnn import hop_concat as hc

        def f():
            z = hcnn_first_order(params, "hcnn", x, cfg_hcnn)
            return ad.matmul(hc(z, params, "hcnn.hop"), Tensor(w))

        report = finite_difference_check(
            f, params.parameters(), h=1e-5, tolerance=1e-4, max_entries=60, seed=1
        )
        assert not report.skipped
        assert report.passed, f"max rel error {report.max_rel_error}"
