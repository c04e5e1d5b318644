"""Fusion head, optimizer, training loop, and checkpoint round trips."""

import numpy as np
import pytest

from hobnet import autodiff as ad
from hobnet.autodiff import Parameter, Tape, Tensor, backward
from hobnet.ffc import (
    AdamState,
    HcnnConfig,
    HgnnConfig,
    ModelConfig,
    ModelError,
    ModelParams,
    TrainConfig,
    adam_step,
    build_model_params,
    checkpoint_meta,
    fit,
    fuse,
    load_checkpoint,
    load_fit,
    loss,
    model_forward,
    parse_toggles,
    predict,
    predict_proba,
    prepare_cohort,
    prepare_subject,
    preset_train_config,
    save_checkpoint,
    select_cohort_gammas,
)
from hobnet.harness import nested_hierarchy, synth_generate
from hobnet.layers import init_mlp

from conftest import random_timeseries, toy_hierarchy_4_6_10

SMALL_MODEL = dict(
    hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4),
    hcnn=HcnnConfig(kernel_sizes=(5, 3), channels=(2, 3), strides=(2, 2), mlp_hidden=(8,), out_dim=4),
    head_hidden=(8,),
)


def small_config(toggles="HGNN+HCNN"):
    return ModelConfig(toggles=parse_toggles(toggles), **SMALL_MODEL)


def tiny_cohort(n=12, seed=0, signal=0.8, noise=0.3):
    hierarchy = nested_hierarchy(2, 2, 2)
    cohort = synth_generate(n, hierarchy, signal=signal, noise=noise, seed=seed, n_timepoints=60)
    return hierarchy, cohort


class TestToggles:
    def test_all_eight_configurations_parse(self):
        names = ["GNN-lan-only", "GNN", "CNN", "HGNN", "HCNN", "HCNN+GNN", "HGNN+CNN", "HGNN+HCNN"]
        for name in names:
            t = parse_toggles(name)
            assert t.name == name

    def test_unknown_toggles_is_an_error(self):
        with pytest.raises(ModelError, match="unknown toggles"):
            parse_toggles("HGNN+LSTM")

    def test_fused_widths(self):
        assert small_config("HGNN+HCNN").fused_width() == 3 * 8 + 8
        assert small_config("HGNN").fused_width() == 24
        assert small_config("HCNN").fused_width() == 8
        assert small_config("GNN").fused_width() == 12
        assert small_config("CNN").fused_width() == 4
        assert small_config("GNN-lan-only").fused_width() == 4
        assert small_config("HCNN+GNN").fused_width() == 12 + 8
        assert small_config("HGNN+CNN").fused_width() == 24 + 4


class TestFuse:
    def test_unit_vectors_stack_graph_first(self):
        out = fuse(Tensor([1.0, 0.0]), Tensor([0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0, 0.0, 2.0])

    def test_width_contract(self):
        z = fuse(Tensor(np.zeros(48)), Tensor(np.zeros(16)))
        assert z.shape == (64,)

    def test_slices_recover_inputs(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=6), rng.normal(size=2)
        out = fuse(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(out[:6], a)
        np.testing.assert_array_equal(out[6:], b)

    def test_width_mismatch_is_an_error(self):
        with pytest.raises(ModelError, match="width mismatch"):
            fuse(Tensor(np.zeros(5)), Tensor(np.zeros(3)), expected=(6, 3))


class TestPredict:
    def head_store(self, width, zero=False, seed=0):
        store = ModelParams()
        init_mlp(store, "head", [width, 4, 2], seed)
        if zero:
            for p in store.parameters():
                p.value.data[:] = 0.0
        return store

    def test_zero_head_gives_uniform_probabilities(self):
        store = self.head_store(6, zero=True)
        probs = predict(Tensor(np.random.default_rng(1).normal(size=6)), store)
        np.testing.assert_allclose(probs.data, [0.5, 0.5], atol=1e-15)

    def test_saturated_logits(self):
        store = ModelParams()
        store.create("head.l0.w", np.array([[40.0, -40.0]]))
        store.create("head.l0.b", np.zeros(2))
        probs = predict(Tensor([1.0]), store).data
        assert probs[0] > 1.0 - 1e-12 and probs[1] < 1e-12

    def test_matches_softmax_mlp_oracle(self):
        store = self.head_store(5, seed=2)
        z = np.random.default_rng(2).normal(size=5)
        probs = predict(Tensor(z), store).data
        h = np.maximum(z @ store["head.l0.w"].data + store["head.l0.b"].data, 0.0)
        logits = h @ store["head.l1.w"].data + store["head.l1.b"].data
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(probs, e / e.sum(), atol=1e-12)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_probabilities_sum_to_one_and_shift_invariant(self):
        store = self.head_store(4, seed=3)
        z = np.random.default_rng(3).normal(size=4)
        probs = predict(Tensor(z), store).data
        assert abs(probs.sum() - 1.0) <= 1e-12
        store["head.l1.b"].value.data += 7.5  # shifts both logits equally
        shifted = predict(Tensor(z), store).data
        np.testing.assert_allclose(shifted, probs, atol=1e-12)


class TestLoss:
    def test_confident_correct_prediction_is_zero(self):
        assert loss(Tensor([0.0, 1.0]), [1]).item() == pytest.approx(0.0, abs=1e-9)

    def test_half_probability_gives_log_two(self):
        assert loss(Tensor([0.5, 0.5]), [1]).item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_batch_mean_of_individual_losses(self):
        probs = Tensor([[0.2, 0.8], [0.8, 0.2]])
        single = [loss(Tensor([0.2, 0.8]), [1]).item(), loss(Tensor([0.8, 0.2]), [0]).item()]
        assert loss(probs, [1, 0]).item() == pytest.approx(np.mean(single), abs=1e-12)

    def test_loss_is_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.uniform(1e-6, 1 - 1e-6)
            y = int(rng.integers(2))
            assert loss(Tensor([1 - p, p]), [y]).item() >= 0.0


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        p = Parameter("w", [1.0])
        p.value.grad = np.array([0.5])
        state = AdamState.for_params([p])
        adam_step([p], state, lr=1e-4)
        assert p.data[0] == pytest.approx(0.9999, abs=1e-8)

    def test_zero_gradient_is_identity(self):
        p = Parameter("w", [2.5, -1.0])
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [2.5, -1.0])

    def test_zero_learning_rate_is_identity(self):
        p = Parameter("w", [3.0])
        p.value.grad = np.array([7.0])
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.0)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_descent_on_quadratic(self):
        p = Parameter("w", [1.0])
        state = AdamState.for_params([p])
        values = []
        for _ in range(2):
            p.zero_grad()
            with Tape() as tape:
                out = ad.total(ad.hadamard(p.value, p.value))
            values.append(out.item())
            backward(tape, out)
            adam_step([p], state, lr=0.01)
        final = p.data[0] ** 2
        assert final < values[0]

    def test_moment_state_decays_as_specified(self):
        p = Parameter("w", [0.0])
        state = AdamState.for_params([p])
        p.value.grad = np.array([1.0])
        adam_step([p], state, lr=0.0)
        np.testing.assert_allclose(state.m["w"], [0.1], atol=1e-15)
        np.testing.assert_allclose(state.v["w"], [0.001], atol=1e-15)
        p.value.grad = np.array([0.0])
        adam_step([p], state, lr=0.0)
        np.testing.assert_allclose(state.m["w"], [0.09], atol=1e-15)
        np.testing.assert_allclose(state.v["w"], [0.000999], atol=1e-15)


class TestPresets:
    def test_dataset_presets(self):
        a1 = preset_train_config("abide1")
        assert (a1.learning_rate, a1.dropout, a1.epochs) == (1e-4, 0.3, 240)
        a2 = preset_train_config("abide2")
        assert (a2.learning_rate, a2.dropout, a2.epochs) == (1e-4, 0.25, 200)
        ad200 = preset_train_config("adhd200")
        assert (ad200.learning_rate, ad200.dropout, ad200.epochs) == (1e-4, 0.3, 300)

    def test_custom_preset_accepts_overrides(self):
        cfg = preset_train_config("custom", seed=7, epochs=3, dropout=0.1)
        assert cfg.epochs == 3 and cfg.seed == 7

    def test_invalid_learning_rate(self):
        with pytest.raises(ModelError, match="learning rate"):
            TrainConfig(learning_rate=0.0)


class TestGammaSelection:
    def test_per_level_gammas_in_range(self):
        hierarchy, cohort = tiny_cohort()
        gammas = select_cohort_gammas([r.timeseries for r in cohort.subjects], hierarchy)
        assert set(gammas) == {"wan", "man", "lan"}
        for g in gammas.values():
            assert 0.0 <= g <= 1.0


class TestFit:
    def test_same_seed_gives_identical_traces_and_params(self):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config()
        tc = TrainConfig(epochs=3, seed=11, batch_size=4)
        r1 = fit(cohort, hierarchy, cfg, tc)
        r2 = fit(cohort, hierarchy, cfg, tc)
        assert r1.loss_trace == r2.loss_trace
        for name in r1.params:
            np.testing.assert_array_equal(r1.params[name].data, r2.params[name].data)

    def test_different_seeds_differ(self):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config()
        r1 = fit(cohort, hierarchy, cfg, TrainConfig(epochs=2, seed=1))
        r2 = fit(cohort, hierarchy, cfg, TrainConfig(epochs=2, seed=2))
        assert r1.loss_trace != r2.loss_trace

    def test_loss_decreases_on_separable_cohort(self):
        hierarchy, cohort = tiny_cohort(n=24, seed=5)
        cfg = small_config()
        tc = TrainConfig(epochs=25, seed=3, batch_size=4, learning_rate=1e-3)
        result = fit(cohort, hierarchy, cfg, tc)
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_dropout_training_is_still_deterministic(self):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config()
        tc = TrainConfig(epochs=2, seed=4, dropout=0.3)
        r1 = fit(cohort, hierarchy, cfg, tc)
        r2 = fit(cohort, hierarchy, cfg, tc)
        assert r1.loss_trace == r2.loss_trace

    def test_all_branches_disabled_is_an_error(self):
        hierarchy, cohort = tiny_cohort()
        broken = ModelConfig(
            toggles=parse_toggles("HGNN+HCNN").__class__(
                name="none", graph=False, graph_high_order=False, cnn=False, cnn_high_order=False
            ),
            **SMALL_MODEL,
        )
        with pytest.raises(ModelError, match="disabled"):
            fit(cohort, hierarchy, broken, TrainConfig(epochs=1))


class TestBranchIndependence:
    def test_cnn_only_model_ignores_graph_inputs(self):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config("HCNN")
        tc = TrainConfig(epochs=2, seed=6)
        result = fit(cohort, hierarchy, cfg, tc)
        subs = prepare_cohort(cohort, hierarchy, result.gammas, encoder=cfg.hgnn.encoder)
        base = predict_proba(result.params, cfg, subs[0])
        subs[0].levels["lan"].features[0, 0] += 100.0
        bumped = prepare_subject(
            cohort.subjects[0].timeseries, hierarchy, result.gammas, encoder=cfg.hgnn.encoder
        )
        bumped.levels["lan"] = subs[0].levels["lan"]
        np.testing.assert_array_equal(predict_proba(result.params, cfg, bumped), base)

    def test_graph_only_model_ignores_fc_input(self):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config("HGNN")
        tc = TrainConfig(epochs=2, seed=7)
        result = fit(cohort, hierarchy, cfg, tc)
        subs = prepare_cohort(cohort, hierarchy, result.gammas, encoder=cfg.hgnn.encoder)
        base = predict_proba(result.params, cfg, subs[0])
        subs[0].fc_input.data[:] += 50.0
        np.testing.assert_array_equal(predict_proba(result.params, cfg, subs[0]), base)


class TestCheckpoint:
    def test_roundtrip_bit_for_bit_and_same_outputs(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config()
        result = fit(cohort, hierarchy, cfg, TrainConfig(epochs=2, seed=8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params, checkpoint_meta(result))
        loaded, meta = load_checkpoint(path)
        assert list(loaded) == list(result.params)
        for name in result.params:
            original = result.params[name].data
            restored = loaded[name].data
            assert original.tobytes() == restored.tobytes()
        subs = prepare_cohort(cohort, hierarchy, result.gammas, encoder=cfg.hgnn.encoder)
        cfg_back = ModelConfig.from_dict(meta["model_config"])
        np.testing.assert_array_equal(
            predict_proba(result.params, cfg, subs[0]), predict_proba(loaded, cfg_back, subs[0])
        )

    def test_load_fit_inverts_checkpoint_meta(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=2, seed=8),
                     subject_ids=cohort.ids()[:8])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params, checkpoint_meta(result))
        back = load_fit(path)
        assert back.subject_ids == cohort.ids()[:8]
        for field in ("config", "train_config", "gammas", "loss_trace", "level_widths", "fc_len",
                      "subject_ids"):
            assert getattr(back, field) == getattr(result, field), field
        assert list(back.params) == list(result.params)
        for name in result.params:
            assert back.params[name].data.tobytes() == result.params[name].data.tobytes()

    def test_load_fit_refuses_checkpoint_without_training_record(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        meta = checkpoint_meta(result)
        del meta["subject_ids"]
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, result.params, meta)
        with pytest.raises(ModelError, match="old.ckpt: checkpoint has no 'subject_ids' record"):
            load_fit(path)

    def test_load_fit_reads_a_checkpoint_recording_binary_adjacency(self, tmp_path):
        # checkpoints written before the adjacency mode became a constant carry this key
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        path = tmp_path / "binary.ckpt"
        save_checkpoint(path, result.params, {**checkpoint_meta(result), "adjacency_mode": "binary"})
        back = load_fit(path)
        assert back.gammas == result.gammas and back.subject_ids == result.subject_ids
        for name in result.params:
            assert back.params[name].data.tobytes() == result.params[name].data.tobytes()

    def test_load_fit_refuses_a_checkpoint_recording_weighted_adjacency(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        path = tmp_path / "weighted.ckpt"
        save_checkpoint(path, result.params, {**checkpoint_meta(result), "adjacency_mode": "weighted"})
        with pytest.raises(ModelError, match="weighted.ckpt: checkpoint uses weighted graphs"):
            load_fit(path)

    def test_load_fit_refuses_parameters_that_do_not_match_the_config(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        meta = checkpoint_meta(result)
        meta["level_widths"] = {**meta["level_widths"], "man": meta["level_widths"]["man"] + 1}
        path = tmp_path / "stale.ckpt"
        save_checkpoint(path, result.params, meta)
        message = (r"stale\.ckpt: checkpoint parameter \('hgnn\.man\.proj\.w', \(4, 4\)\) "
                   r"does not match \('hgnn\.man\.proj\.w', \(5, 4\)\)")
        with pytest.raises(ModelError, match=message):
            load_fit(path)

    @pytest.mark.parametrize(
        "section, where",
        [
            (("model_config",), "model_config"),
            (("model_config", "hgnn"), "model_config.hgnn"),
            (("model_config", "hcnn"), "model_config.hcnn"),
            (("train_config",), "train_config"),
        ],
    )
    def test_load_fit_refuses_an_unknown_config_key(self, tmp_path, section, where):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        meta = checkpoint_meta(result)
        target = meta
        for key in section:
            target = target[key]
        target["depth"] = 2
        path = tmp_path / "future.ckpt"
        save_checkpoint(path, result.params, meta)
        with pytest.raises(ModelError, match=f"future.ckpt: {where} has unknown key 'depth'"):
            load_fit(path)

    def test_config_dict_roundtrip(self):
        cfg = small_config("HGNN+CNN")
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back.toggles == cfg.toggles
        assert back.hgnn == cfg.hgnn
        assert back.hcnn == cfg.hcnn

    def test_corrupt_file_is_an_error(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\x01\x02not json\n")
        with pytest.raises(ModelError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload_is_an_error(self, tmp_path):
        store = ModelParams()
        store.create("w", np.arange(4.0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, {})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ModelError, match="truncated"):
            load_checkpoint(path)


class TestMixedAtlasSizes:
    def test_fc_branch_can_use_a_different_parcellation(self):
        hierarchy = toy_hierarchy_4_6_10()
        ts = random_timeseries(10, n_timepoints=50, seed=9, names=hierarchy.rois)
        fc_ts = random_timeseries(12, n_timepoints=50, seed=10)
        sub = prepare_subject(ts, hierarchy, gammas=0.3, fc_source=fc_ts)
        assert sub.fc_len == 12 * 11 // 2
        cfg = small_config()
        params = build_model_params(
            cfg, {lvl: sub.levels[lvl].width for lvl in ("wan", "man", "lan")}, sub.fc_len, seed=0
        )
        probs = model_forward(params, cfg, sub)
        assert abs(probs.data.sum() - 1.0) <= 1e-12
