"""Fusion head, optimizer, training loop, and checkpoint round trips."""

import dataclasses
import json

import numpy as np
import pytest

from hobnet import autodiff as ad
from hobnet.autodiff import Tape, Tensor, backward
from hobnet.connectivity import pearson_fc
from hobnet.ffc import (
    AdamState,
    BranchToggles,
    FitResult,
    HcnnConfig,
    HgnnConfig,
    ModelConfig,
    ModelError,
    TOGGLES,
    TrainConfig,
    adam_step,
    build_model_params,
    checkpoint_meta,
    fit,
    init_params,
    load_fit,
    model_forward,
    param_layout,
    parse_toggles,
    prepare_cohort,
    prepare_subject,
    preset_train_config,
    save_checkpoint,
    select_cohort_gammas,
)
from hobnet.harness import nested_hierarchy, synth_generate
from hobnet.hcnn import dr_flatten
from hobnet.hgnn import ENCODERS
from hobnet.layers import mlp_forward, mlp_layout

from conftest import params_of, random_timeseries, toy_hierarchy_4_6_10
from oracles import as_old_checkpoint, total, traced_peak

SMALL_MODEL = dict(
    hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4),
    hcnn=HcnnConfig(kernel_sizes=(5, 3), channels=(2, 3), strides=(2, 2), mlp_hidden=(8,), out_dim=4),
    head_hidden=(8,),
)


def small_config(toggles="HGNN+HCNN"):
    return ModelConfig(toggles=parse_toggles(toggles), **SMALL_MODEL)


def predict_proba(params, cfg, batch):
    """Eval-mode class probabilities of a stack's first subject, as a stack of one."""
    return model_forward(params, cfg, batch.take(slice(1))).data[0]


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


class TestPredict:
    def head_store(self, width, zero=False, seed=0):
        store = init_params(mlp_layout("head", [width, 4, 2]), seed)
        if zero:
            for p in store.parameters():
                p.data[:] = 0.0
        return store

    def test_zero_head_gives_uniform_probabilities(self):
        store = self.head_store(6, zero=True)
        probs = ad.softmax(mlp_forward(Tensor(np.random.default_rng(1).normal(size=6)), store, "head"))
        np.testing.assert_allclose(probs.data, [0.5, 0.5], atol=1e-15)

    def test_saturated_logits(self):
        store = params_of({"head.l0.w": [[40.0, -40.0]], "head.l0.b": np.zeros(2)})
        probs = ad.softmax(mlp_forward(Tensor([1.0]), store, "head")).data
        assert probs[0] > 1.0 - 1e-12 and probs[1] < 1e-12

    def test_matches_softmax_mlp_oracle(self):
        store = self.head_store(5, seed=2)
        z = np.random.default_rng(2).normal(size=5)
        probs = ad.softmax(mlp_forward(Tensor(z), store, "head")).data
        h = np.maximum(z @ store["head.l0.w"].data + store["head.l0.b"].data, 0.0)
        logits = h @ store["head.l1.w"].data + store["head.l1.b"].data
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(probs, e / e.sum(), atol=1e-12)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_probabilities_sum_to_one_and_shift_invariant(self):
        store = self.head_store(4, seed=3)
        z = np.random.default_rng(3).normal(size=4)
        probs = ad.softmax(mlp_forward(Tensor(z), store, "head")).data
        assert abs(probs.sum() - 1.0) <= 1e-12
        store["head.l1.b"].data += 7.5  # shifts both logits equally
        shifted = ad.softmax(mlp_forward(Tensor(z), store, "head")).data
        np.testing.assert_allclose(shifted, probs, atol=1e-12)


class TestLoss:
    def test_confident_correct_prediction_is_zero(self):
        assert ad.cross_entropy(Tensor([0.0, 1.0]), [1]).item() == pytest.approx(0.0, abs=1e-9)

    def test_half_probability_gives_log_two(self):
        assert ad.cross_entropy(Tensor([0.5, 0.5]), [1]).item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_batch_mean_of_individual_losses(self):
        probs = Tensor([[0.2, 0.8], [0.8, 0.2]])
        single = [ad.cross_entropy(Tensor(p), [y]).item() for p, y in [([0.2, 0.8], 1), ([0.8, 0.2], 0)]]
        assert ad.cross_entropy(probs, [1, 0]).item() == pytest.approx(np.mean(single), abs=1e-12)

    def test_loss_is_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.uniform(1e-6, 1 - 1e-6)
            y = int(rng.integers(2))
            assert ad.cross_entropy(Tensor([1 - p, p]), [y]).item() >= 0.0


def moments(state, params) -> list[bytes]:
    """The bytes of an Adam state's two moments in ``params.data``'s layout,
    whether it keeps them flat or by parameter name."""
    flat = [m if isinstance(m, np.ndarray) else np.concatenate([m[name].ravel() for name in params])
            for m in (state.m, state.v)]
    return [m.tobytes() for m in flat]


def single_weight(values, grad=None):
    """A ``ModelParams`` of one parameter ``w``, its gradient set when given."""
    params = params_of({"w": values})
    params.zero_grad()
    if grad is not None:
        params.grad[:] = grad
    return params


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        params = single_weight([1.0], grad=0.5)
        adam_step(AdamState(params), lr=1e-4)
        assert params["w"].data[0] == pytest.approx(0.9999, abs=1e-8)

    def test_zero_gradient_is_identity(self):
        params = single_weight([2.5, -1.0])
        adam_step(AdamState(params), lr=0.1)
        np.testing.assert_array_equal(params["w"].data, [2.5, -1.0])

    def test_zero_learning_rate_is_identity(self):
        params = single_weight([3.0], grad=7.0)
        adam_step(AdamState(params), lr=0.0)
        np.testing.assert_array_equal(params["w"].data, [3.0])

    def test_descent_on_quadratic(self):
        params = params_of({"w": [1.0]})
        p, state = params["w"], AdamState(params)
        values = []
        for _ in range(2):
            params.zero_grad()
            with Tape() as tape:
                out = total(ad.hadamard(p, p))
            values.append(out.item())
            backward(tape, out)
            adam_step(state, lr=0.01)
        final = p.data[0] ** 2
        assert final < values[0]

    def test_moment_state_decays_as_specified(self):
        params = single_weight([0.0], grad=1.0)
        state = AdamState(params)
        adam_step(state, lr=0.0)
        np.testing.assert_allclose(state.m, [0.1], atol=1e-15)
        np.testing.assert_allclose(state.v, [0.001], atol=1e-15)
        params.zero_grad()
        adam_step(state, lr=0.0)
        np.testing.assert_allclose(state.m, [0.09], atol=1e-15)
        np.testing.assert_allclose(state.v, [0.000999], atol=1e-15)

    def test_a_step_before_any_gradient_is_refused(self):
        with pytest.raises(ModelError, match="adam_step: no gradients"):
            adam_step(AdamState(params_of({"w": [1.0]})), lr=0.1)

    def test_in_place_update_is_byte_identical_to_the_reference_order(self, monkeypatch):
        import oracles

        # at 2,048 entries a slice, "d" and "e" span several slices; packed,
        # slices cross parameter boundaries
        monkeypatch.setattr(ad, "CHUNK_BYTES", 65536)
        shapes = {"a": (5, 3), "b": (4,), "c": (2, 3, 2), "d": (3000, 7), "e": (20000,)}
        runs = []
        for make_state, step in (
            (AdamState, adam_step),
            (oracles.per_parameter_adam_state, oracles.adam_step_per_parameter),
            (oracles.per_parameter_adam_state, oracles.adam_step),
        ):
            rng = np.random.default_rng(17)
            params = params_of({name: np.random.default_rng(1).normal(size=shape)
                                for name, shape in shapes.items()})
            state = make_state(params)
            grads = np.random.default_rng(2)
            for _ in range(5):
                params.zero_grad()
                for p in params.parameters():
                    p.grad[...] = grads.normal(size=p.shape) * rng.choice([1e-3, 1.0, 50.0])
                step(state, lr=1e-2)
            runs.append((params.data.tobytes(), *moments(state, params)))
        assert sum(np.prod(shape) for shape in shapes.values()) > 5 * ad.CHUNK_BYTES // 8
        assert runs[0] == runs[1] == runs[2]

    def test_a_second_step_of_the_criterion_5_model_makes_no_scratch_array(self):
        cfg = ModelConfig(
            toggles=parse_toggles("HGNN+HCNN"),
            hgnn=HgnnConfig(k=3, blocks=3, hidden_dim=16),
            hcnn=HcnnConfig(out_dim=16),
            head_hidden=(64,),
        )
        params = build_model_params(cfg, {"wan": 4, "man": 8, "lan": 16}, 120, seed=0)
        params.zero_grad()
        params.grad[:] = np.random.default_rng(3).normal(size=params.grad.size)
        state = AdamState(params)
        adam_step(state, lr=1e-4)
        _, peak, _ = traced_peak(lambda: adam_step(state, lr=1e-4))
        # two arrays of the whole layout would take 1.28 MiB
        assert params.data.size == 84155
        assert peak < 0.1 * 2**20, f"a second step traced {peak} bytes"
        # the scratch buffers are 256 KiB slices, which fit's peak carries
        assert state.step.nbytes == state.denom.nbytes == 2**18

    def test_packing_makes_every_array_a_view_of_one_buffer(self):
        params = build_model_params(small_config(), {"wan": 2, "man": 4, "lan": 8}, 28, seed=0)
        assert params.data.size == params.total_size() and params.grad is None
        params.zero_grad()
        for name, lo, hi in zip(params, params.bounds, params.bounds[1:]):
            p = params[name]
            for array, flat in ((p.data, params.data), (p.grad, params.grad)):
                assert array.base is flat and array.shape == p.shape
                assert np.shares_memory(array, flat[lo:hi]) and array.size == hi - lo
        state = AdamState(params)
        assert state.m.shape == state.v.shape == params.data.shape
        params.grad[:] = 1.0
        params.zero_grad()
        assert not params.grad.any()

    @pytest.mark.parametrize("bad", ["a", "b", "c"])
    def test_a_non_finite_update_names_its_parameter_after_packing(self, bad):
        params = params_of({"a": np.ones((3, 4)), "b": np.ones(5), "c": np.ones(2)})
        state = AdamState(params)
        params.zero_grad()
        for p in params.parameters():  # the first and the last entry of each parameter
            p.grad.reshape(-1)[[0, -1]] = np.inf if p.name == bad else 1.0
        with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteValue, match=f"parameter '{bad}'"):
            adam_step(state, lr=0.1)

    def test_fit_matches_the_per_parameter_update(self, monkeypatch):
        import oracles
        from hobnet import ffc

        hierarchy = toy_hierarchy_4_6_10()  # unequal norm blocks: the padded layout
        cohort = synth_generate(12, hierarchy, signal=0.8, noise=0.3, seed=4, n_timepoints=60)
        tc = TrainConfig(epochs=3, seed=2, batch_size=5, learning_rate=1e-2)
        flat = fit(cohort, hierarchy, small_config(), tc)
        monkeypatch.setattr(ffc, "AdamState", oracles.per_parameter_adam_state)
        monkeypatch.setattr(ffc, "adam_step", oracles.adam_step_per_parameter)
        reference = fit(cohort, hierarchy, small_config(), tc)
        assert flat.loss_trace == reference.loss_trace
        for name in flat.params:
            assert flat.params[name].data.tobytes() == reference.params[name].data.tobytes()

    def test_scoring_and_fitting_leave_no_gradient_buffers(self):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        subs = prepare_cohort(cohort, hierarchy, result.gammas)
        built = build_model_params(small_config(), result.level_widths, result.fc_len, seed=0)
        for params in (built, result.params):
            predict_proba(params, small_config(), subs)
            assert params.grad is None and all(p.grad is None for p in params.parameters())

    def test_zero_grad_reuses_each_buffer(self):
        params = build_model_params(small_config(), {"wan": 2, "man": 4, "lan": 8}, 28, seed=0)
        params.zero_grad()
        buffer, views = params.grad, {name: params[name].grad for name in params}
        for name in params:
            params[name].grad[...] = 1.0
        params.zero_grad()
        assert params.grad is buffer and not buffer.any()
        for name in params:
            assert params[name].grad is views[name]


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

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_is_refused(self, rate):
        with pytest.raises(ModelError, match=rf"learning rate must be positive and finite, got {rate}"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("rate", [-0.1, 1.0])
    def test_dropout_outside_zero_to_one_is_refused(self, rate):
        with pytest.raises(ModelError, match=rf"dropout must be in \[0, 1\), got {rate}"):
            TrainConfig(dropout=rate)

    @pytest.mark.parametrize("size", [-1, 0])
    def test_batch_size_below_one_is_refused(self, size):
        with pytest.raises(ModelError, match=rf"batch size must be >= 1 \(or None for full batch\), got {size}"):
            TrainConfig(batch_size=size)
        assert TrainConfig(batch_size=None).batch_size is None and TrainConfig(batch_size=1).batch_size == 1


class TestGammaSelection:
    def test_per_level_gammas_in_range(self):
        hierarchy, cohort = tiny_cohort()
        gammas = select_cohort_gammas([r.timeseries for r in cohort.subjects], hierarchy)
        assert set(gammas) == {"wan", "man", "lan"}
        for g in gammas.values():
            assert 0.0 <= g <= 1.0

    def test_a_one_network_level_is_edgeless_and_gets_gamma_one(self):
        hierarchy = nested_hierarchy(1, 2, 2)
        cohort = synth_generate(6, hierarchy, signal=0.0, seed=1, n_timepoints=40)
        assert select_cohort_gammas([r.timeseries for r in cohort.subjects], hierarchy)["wan"] == 1.0


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

    def test_dropout_rate_reaches_the_forward(self):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config()
        plain = fit(cohort, hierarchy, cfg, TrainConfig(epochs=2, seed=4))
        dropped = fit(cohort, hierarchy, cfg, TrainConfig(epochs=2, seed=4, dropout=0.3))
        assert dropped.loss_trace != plain.loss_trace
        assert dropped.config == plain.config == cfg

    @pytest.fixture(scope="class")
    def atlas_fit_peak(self):
        """The traced peak of a 3-epoch fit on 8 subjects at 196 ROIs."""
        hierarchy = nested_hierarchy(7, 4, 7)
        cohort = synth_generate(8, hierarchy, seed=1)
        cfg = ModelConfig(
            toggles=parse_toggles("HGNN+HCNN"),
            hgnn=HgnnConfig(k=3, blocks=3, hidden_dim=16),
            hcnn=HcnnConfig(out_dim=16),
            head_hidden=(64,),
        )
        tc = TrainConfig(learning_rate=1e-4, epochs=3, seed=7, batch_size=8)
        _, peak, _ = traced_peak(lambda: fit(cohort, hierarchy, cfg, tc))
        return peak

    def test_an_atlas_scale_fit_stays_within_its_memory_budget(self, atlas_fit_peak):
        # 196 ROIs: the CNN branch pools its conv output, of length 4774, into
        # 32 bins, which keeps its first dense layer at 512 x 128
        assert atlas_fit_peak < 150 << 20, f"peak {atlas_fit_peak / 2**20:.1f} MiB"

    def test_an_atlas_scale_fit_builds_its_conv_windows_in_chunks(self, atlas_fit_peak):
        # the conv forward's window matrix and the input gradient are built a
        # subject at a time: 64.5 MiB traced, from 69.8 with one window
        # matrix per batch
        assert atlas_fit_peak < 67 << 20, f"peak {atlas_fit_peak / 2**20:.1f} MiB"

    def test_all_branches_disabled_is_an_error(self):
        with pytest.raises(ModelError, match="'none': all branches disabled"):
            BranchToggles(name="none", graph=False, graph_high_order=False, cnn=False, cnn_high_order=False)


class TestBranchIndependence:
    def test_cnn_only_model_ignores_graph_inputs(self):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config("HCNN")
        tc = TrainConfig(epochs=2, seed=6)
        result = fit(cohort, hierarchy, cfg, tc)
        subs = prepare_cohort(cohort, hierarchy, result.gammas, encoder=cfg.hgnn.encoder)
        base = predict_proba(result.params, cfg, subs)
        subs.levels["lan"].features[0, 0, 0] += 100.0
        bumped = prepare_subject(
            cohort.subjects[0].timeseries, hierarchy, result.gammas, encoder=cfg.hgnn.encoder
        )
        bumped.levels["lan"] = subs.levels["lan"].take(slice(1))
        np.testing.assert_array_equal(predict_proba(result.params, cfg, bumped), base)

    def test_graph_only_model_ignores_fc_input(self):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config("HGNN")
        tc = TrainConfig(epochs=2, seed=7)
        result = fit(cohort, hierarchy, cfg, tc)
        subs = prepare_cohort(cohort, hierarchy, result.gammas, encoder=cfg.hgnn.encoder)
        base = predict_proba(result.params, cfg, subs)
        subs[0].fc_input.data[:] += 50.0
        np.testing.assert_array_equal(predict_proba(result.params, cfg, subs), base)


class TestCheckpoint:
    def test_roundtrip_bit_for_bit_and_same_outputs(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        cfg = small_config()
        result = fit(cohort, hierarchy, cfg, TrainConfig(epochs=2, seed=8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params, checkpoint_meta(result))
        back = load_fit(path)
        loaded = back.params
        assert list(loaded) == list(result.params)
        for name in result.params:
            original = result.params[name].data
            restored = loaded[name].data
            assert original.tobytes() == restored.tobytes()
        subs = prepare_cohort(cohort, hierarchy, result.gammas, encoder=cfg.hgnn.encoder)
        cfg_back = back.config
        np.testing.assert_array_equal(
            predict_proba(result.params, cfg, subs), predict_proba(loaded, cfg_back, subs)
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

    def test_loading_reads_each_payload_once_into_the_parameters(self, tmp_path):
        # a wide CNN-branch MLP makes the payload 4.5 MiB
        cfg = ModelConfig(hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=8), hcnn=HcnnConfig(mlp_hidden=(768,)))
        widths = {"wan": 2, "man": 4, "lan": 32}
        result = FitResult(build_model_params(cfg, widths, 496, seed=3), cfg, TrainConfig(seed=3),
                           dict.fromkeys(widths, 0.5), [0.7], widths, 496, ["s0"])
        for p in result.params.parameters():
            p.data[...] += 0.25  # not the initial values of the same seed
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params, checkpoint_meta(result))
        payload = 8 * result.params.total_size()
        assert payload > 3 << 20
        params, peak, _ = traced_peak(lambda: load_fit(path).params)
        assert peak < 1.5 * payload, peak / payload
        assert list(params) == list(result.params)
        for name in result.params:
            assert params[name].data.tobytes() == result.params[name].data.tobytes()

    def test_loading_draws_no_random_value(self, tmp_path, monkeypatch):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params, checkpoint_meta(result))

        def no_stream(seed, purpose):
            raise AssertionError(f"loading drew from the stream {purpose!r}")

        monkeypatch.setattr("hobnet.layers.named_stream", no_stream)
        loaded = load_fit(path).params
        assert list(loaded) == list(result.params)
        for name in result.params:
            assert loaded[name].data.tobytes() == result.params[name].data.tobytes()

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("toggles", sorted(TOGGLES))
    def test_the_layout_is_what_is_built_and_saved(self, tmp_path, toggles, encoder):
        cfg = ModelConfig(toggles=TOGGLES[toggles], hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4, encoder=encoder),
                          hcnn=SMALL_MODEL["hcnn"], head_hidden=(8,))
        widths = {"wan": 2, "man": 4, "lan": 8}
        rows = [(name, shape) for name, shape, _ in param_layout(cfg, widths, 28)]
        params = build_model_params(cfg, widths, 28, seed=0)
        assert [(p.name, p.data.shape) for p in params.parameters()] == rows
        result = FitResult(params, cfg, TrainConfig(), dict.fromkeys(widths, 0.5), [0.7], widths, 28, ["s0"])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, checkpoint_meta(result))
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert [(e["name"], tuple(e["shape"])) for e in header["params"]] == rows

    def test_load_fit_refuses_checkpoint_without_training_record(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        meta = checkpoint_meta(result)
        del meta["subject_ids"]
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, result.params, meta)
        with pytest.raises(ModelError, match="old.ckpt: checkpoint has no 'subject_ids' record"):
            load_fit(path)

    def refuses_an_old_checkpoint(self, tmp_path, version):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params, checkpoint_meta(result))
        old = tmp_path / f"v{version}.ckpt"
        as_old_checkpoint(path, old, version)
        message = (rf"v{version}\.ckpt: checkpoint format 'hobnet-checkpoint-v{version}' "
                   r"is not 'hobnet-checkpoint-v3'; retrain it$")
        with pytest.raises(ModelError, match=message):
            load_fit(old)

    def test_load_fit_refuses_a_v1_checkpoint(self, tmp_path):
        self.refuses_an_old_checkpoint(tmp_path, 1)

    def test_load_fit_refuses_a_v2_checkpoint(self, tmp_path):
        # v2 read the whole conv output into the CNN branch's MLP
        self.refuses_an_old_checkpoint(tmp_path, 2)

    def test_checkpoint_meta_holds_each_setting_once(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8, dropout=0.2))
        meta = checkpoint_meta(result)
        assert "seed" not in meta and meta["train_config"]["seed"] == 8
        assert meta["train_config"]["dropout"] == 0.2
        assert set(meta["model_config"]["hgnn"]) == {"k", "blocks", "hidden_dim", "encoder"}
        assert "dropout" not in meta["model_config"]["hcnn"]

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
            load_fit(path)

    def test_truncated_payload_is_an_error(self, tmp_path):
        hierarchy, cohort = tiny_cohort()
        result = fit(cohort, hierarchy, small_config(), TrainConfig(epochs=1, seed=8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params, checkpoint_meta(result))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ModelError, match="truncated"):
            load_fit(path)


class TestMixedAtlasSizes:
    def test_fc_branch_can_use_a_different_parcellation(self):
        hierarchy = toy_hierarchy_4_6_10()
        ts = random_timeseries(10, n_timepoints=50, seed=9, names=hierarchy.rois)
        fc_ts = random_timeseries(12, n_timepoints=50, seed=10)
        batch = dataclasses.replace(
            prepare_subject(ts, hierarchy, gammas=0.3), fc_input=dr_flatten(pearson_fc([fc_ts]))[:, None]
        )
        assert batch[0].fc_len == 12 * 11 // 2
        cfg = small_config()
        params = build_model_params(
            cfg, {lvl: batch.levels[lvl].width for lvl in ("wan", "man", "lan")}, batch.fc_len, seed=0
        )
        probs = predict_proba(params, cfg, batch)
        assert abs(probs.sum() - 1.0) <= 1e-12
