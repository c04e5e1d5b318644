"""Graph-branch behavior: blocks, adaptive mixing, high-order pooling."""

from dataclasses import replace

import numpy as np
import pytest

from hobnet import autodiff as ad
from hobnet.autodiff import Parameter, Tape, Tensor, backward, finite_difference_check
from hobnet.connectivity import LAN, MAN, WAN
from hobnet.ffc import (
    ModelConfig,
    build_model_params,
    fused_features,
    parse_toggles,
    prepare_subject,
)
from hobnet.hgnn import (
    HgnnConfig,
    afm_combine,
    afm_weights,
    branch_high_order,
    chebconv_block,
    level_encoder,
)
from hobnet.spectral import cheb_apply

from conftest import random_timeseries, toy_hierarchy_4_6_10
from oracles import row_runs


def toy_inputs(encoder="res-cheb", seed=0, gamma=0.3):
    """One prepared subject: a stack of one."""
    hierarchy = toy_hierarchy_4_6_10()
    ts = random_timeseries(10, n_timepoints=60, seed=seed, names=hierarchy.rois)
    return hierarchy, prepare_subject(ts, hierarchy, gammas=gamma, encoder=encoder)


def afm_combine_by_selectors(block_outputs, r):
    """The former AFM mix: an eye-row matmul per weight, a hadamard and a running add."""
    s = afm_weights(r)
    combined = None
    for l, out in enumerate(block_outputs):
        weight = ad.matmul(Tensor(np.eye(len(block_outputs))[l : l + 1]), s)
        term = ad.hadamard(weight, out)
        combined = term if combined is None else ad.add(combined, term)
    return combined


class TestAfm:
    @pytest.mark.parametrize("blocks, shape", [(1, (4, 3)), (2, (5, 2)), (3, (10, 16)), (5, (7, 4))])
    def test_matches_selector_loop_oracle(self, blocks, shape):
        rng = np.random.default_rng(blocks)
        outs = [Parameter(f"h{l}", rng.normal(size=shape)) for l in range(blocks)]
        r = Parameter("r", rng.normal(size=blocks) * 2.0)
        w = Tensor(rng.normal(size=shape).ravel())
        results = []
        for combine in (afm_combine, afm_combine_by_selectors):
            for p in (r, *outs):
                p.grad = None
            with Tape() as tape:
                z = combine(outs, r)
                loss = ad.matmul(ad.reshape(z, (-1,)), w)
            backward(tape, loss)
            results.append((z.data, r.grad.copy(), [o.grad.copy() for o in outs]))
        (z_new, dr_new, dh_new), (z_old, dr_old, dh_old) = results
        assert z_new.shape == z_old.shape == shape
        np.testing.assert_allclose(z_new, z_old, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dr_new, dr_old, rtol=0, atol=1e-12)
        for got, want in zip(dh_new, dh_old):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_uniform_r_gives_mean_of_blocks(self):
        rng = np.random.default_rng(0)
        outs = [Tensor(rng.normal(size=(4, 3))) for _ in range(3)]
        z = afm_combine(outs, Tensor(np.zeros(3)))
        expected = sum(o.data for o in outs) / 3.0
        np.testing.assert_allclose(z.data, expected, atol=1e-12)

    def test_saturated_r_selects_one_block(self):
        rng = np.random.default_rng(1)
        outs = [Tensor(rng.normal(size=(2, 2))) for _ in range(3)]
        z = afm_combine(outs, Tensor([100.0, 0.0, 0.0]))
        np.testing.assert_allclose(z.data, outs[0].data, atol=1e-12)

    def test_two_blocks_match_hand_computed_mix(self):
        rng = np.random.default_rng(2)
        outs = [Tensor(rng.normal(size=(3, 2))) for _ in range(2)]
        r = np.array([0.4, -1.1])
        e = np.exp(r - r.max())
        s = e / e.sum()
        z = afm_combine(outs, Tensor(r))
        np.testing.assert_allclose(z.data, s[0] * outs[0].data + s[1] * outs[1].data, atol=1e-12)

    def test_weights_sum_to_one_and_argmax_matches(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.normal(size=4) * rng.uniform(0.1, 30)
            s = afm_weights(Tensor(r)).data
            assert abs(s.sum() - 1.0) <= 1e-12
            assert np.all(s > 0)
            assert np.argmax(s) == np.argmax(r)

    def test_shape_mismatch_is_an_error(self):
        outs = [Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))]
        with pytest.raises(ad.ShapeMismatch, match="concat"):
            afm_combine(outs, Tensor(np.zeros(2)))
        with pytest.raises(ad.ShapeMismatch, match="matmul: inner dimensions"):
            afm_combine(outs[:1] * 2, Tensor(np.zeros(3)))

    def test_gradient_flows_through_r(self):
        rng = np.random.default_rng(4)
        outs = [Tensor(rng.normal(size=(3, 2))) for _ in range(3)]
        r = Parameter("r", rng.normal(size=3))
        w = rng.normal(size=(3, 2))

        def f():
            from hobnet import autodiff as ad

            return ad.matmul(ad.reshape(afm_combine(outs, r), (-1,)), Tensor(w.ravel()))

        report = finite_difference_check(f, [r], tolerance=1e-6)
        assert report.passed and not report.skipped


class TestGhop:
    """The HGNN's high-order pooling: the Gram matrix of the node embeddings."""

    def test_identity_embeddings(self):
        z = Tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(ad.transpose(z), z).data, np.eye(2))

    def test_orthogonal_columns_give_diagonal_norms(self):
        z = Tensor([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(ad.matmul(ad.transpose(z), z).data, np.diag([9.0, 16.0]), atol=1e-12)

    def test_matches_double_loop_oracle(self):
        z = np.random.default_rng(5).normal(size=(5, 3))
        gram = ad.matmul(ad.transpose(Tensor(z)), Tensor(z)).data
        for i in range(3):
            for j in range(3):
                expected = sum(z[n, i] * z[n, j] for n in range(5))
                assert gram[i, j] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_and_psd(self):
        for seed in range(10):
            z = Tensor(np.random.default_rng(seed).normal(size=(6, 4)))
            gram = ad.matmul(ad.transpose(z), z).data
            np.testing.assert_array_equal(gram, gram.T)
            assert np.linalg.eigvalsh(gram).min() >= -1e-10


class TestChebconvBlock:
    def test_zero_filters_res_cheb_is_identity(self):
        hierarchy, batch = toy_inputs()
        cfg = HgnnConfig(k=2, blocks=1, hidden_dim=5)
        level = batch.levels[MAN]
        params = build_model_params(
            ModelConfig(toggles=parse_toggles("GNN"), hgnn=cfg),
            {lvl: batch.levels[lvl].width for lvl in (WAN, MAN, LAN)},
            fc_len=45,
            seed=0,
        )
        for k in range(cfg.k):
            params[f"hgnn.man.block0.theta{k}"].data[:] = 0.0
        params["hgnn.man.block0.norm.gain"].data[:] = 1.0
        params["hgnn.man.block0.norm.shift"].data[:] = 0.0
        h_in = Tensor(np.random.default_rng(6).normal(size=(1, level.features.shape[1], 5)))
        out = chebconv_block(
            h_in, Tensor(level.operator), level.norm_blocks, params, "hgnn.man.block0", cfg, None
        )
        np.testing.assert_array_equal(out.data, h_in.data)

    def test_cheb_k1_bare_mode_reduces_to_projection(self):
        hierarchy, batch = toy_inputs(encoder="cheb")
        cfg = HgnnConfig(k=1, blocks=1, hidden_dim=4, encoder="cheb")
        level = batch[0].levels[WAN]
        params = build_model_params(
            ModelConfig(toggles=parse_toggles("GNN"), hgnn=cfg),
            {lvl: batch.levels[lvl].width for lvl in (WAN, MAN, LAN)},
            fc_len=45,
            seed=1,
        )
        h_in = Tensor(np.random.default_rng(7).normal(size=(level.features.shape[0], 4)))
        theta0 = params["hgnn.wan.block0.theta0"]
        out = cheb_apply(Tensor(level.lap.rescaled), h_in, [theta0])
        np.testing.assert_allclose(out.data, h_in.data @ theta0.data, atol=1e-12)

    @pytest.mark.parametrize("encoder", ["res-cheb", "cheb", "gcn"])
    def test_block_diagonal_locality_feature_perturbation(self, encoder):
        hierarchy, batch = toy_inputs(encoder=encoder, seed=8)
        cfg = HgnnConfig(k=3, blocks=3, hidden_dim=6, encoder=encoder)
        widths = {lvl: batch.levels[lvl].width for lvl in (WAN, MAN, LAN)}
        params = build_model_params(
            ModelConfig(toggles=parse_toggles("GNN"), hgnn=cfg), widths, fc_len=45, seed=2
        )
        for level_name in (MAN, LAN):
            level = batch.levels[level_name]
            blocks = row_runs(level.norm_blocks)
            base = level_encoder(params, f"hgnn.{level_name}", level, cfg).data[0]
            perturbed_feats = level.features.copy()
            perturbed_feats[0, blocks[0][0], blocks[0][0]] += 3.21
            bumped = replace(level, features=perturbed_feats)
            out = level_encoder(params, f"hgnn.{level_name}", bumped, cfg).data[0]
            others = np.concatenate([b for b in blocks[1:]])
            assert np.array_equal(out[others], base[others]), level_name


class TestBranchHighOrder:
    def test_zero_embeddings_zero_bias_mlp_gives_zeros(self):
        hierarchy, batch = toy_inputs()
        cfg = HgnnConfig(hidden_dim=4)
        params = build_model_params(
            ModelConfig(toggles=parse_toggles("HGNN"), hgnn=cfg),
            {lvl: batch.levels[lvl].width for lvl in (WAN, MAN, LAN)},
            fc_len=45,
            seed=3,
        )
        out = branch_high_order(Tensor(np.zeros((5, 4))), params, "hgnn.wan.ghop")
        np.testing.assert_array_equal(out.data, np.zeros(8))

    def test_single_node_mean_readout(self):
        z = np.array([[1.5, -2.0, 0.5]])
        out = branch_high_order(Tensor(z), None, "unused", high_order=False)
        np.testing.assert_array_equal(out.data, z[0])

    def test_matches_stepwise_composition(self):
        hierarchy, batch = toy_inputs()
        cfg = HgnnConfig(hidden_dim=4)
        params = build_model_params(
            ModelConfig(toggles=parse_toggles("HGNN"), hgnn=cfg),
            {lvl: batch.levels[lvl].width for lvl in (WAN, MAN, LAN)},
            fc_len=45,
            seed=4,
        )
        z = np.random.default_rng(9).normal(size=(6, 4))
        out = branch_high_order(Tensor(z), params, "hgnn.man.ghop").data
        gram = z.T @ z
        rows, cols = np.triu_indices(4, k=0)
        flat = gram[rows, cols]
        w0, b0 = params["hgnn.man.ghop.l0.w"].data, params["hgnn.man.ghop.l0.b"].data
        w1, b1 = params["hgnn.man.ghop.l1.w"].data, params["hgnn.man.ghop.l1.b"].data
        high = np.maximum(flat @ w0 + b0, 0.0) @ w1 + b1
        np.testing.assert_allclose(out, np.concatenate([z.mean(axis=0), high]), atol=1e-12)


class TestGraphBranchGradients:
    def test_branch_gradients_match_finite_differences(self):
        hierarchy, batch = toy_inputs(seed=11)
        cfg = ModelConfig(toggles=parse_toggles("HGNN"), hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4))
        widths = {lvl: batch.levels[lvl].width for lvl in (WAN, MAN, LAN)}
        params = build_model_params(cfg, widths, fc_len=45, seed=5)
        rng = np.random.default_rng(12)
        w = rng.normal(size=cfg.fused_width())

        def f():
            from hobnet import autodiff as ad

            features = fused_features(params, cfg, batch)
            return ad.matmul(ad.reshape(features, (-1,)), Tensor(w))

        report = finite_difference_check(
            f, params.parameters(), h=1e-5, tolerance=1e-4, max_entries=60, seed=0
        )
        assert not report.skipped
        assert report.passed, f"max rel error {report.max_rel_error}"
