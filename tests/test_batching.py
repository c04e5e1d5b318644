"""Stacked mini-batches against the per-subject forward pass they replace.

The per-subject forward lives in ``oracles``; every comparison allows
1e-12, and the tape-size tests count instead of timing.
"""

from collections import Counter

import numpy as np
import pytest

from hobnet import autodiff, ffc
from hobnet.autodiff import Tape, backward, cross_entropy
from hobnet.connectivity import LEVELS
from hobnet.ffc import (
    TOGGLES,
    HcnnConfig,
    HgnnConfig,
    ModelConfig,
    SubjectBatch,
    build_model_params,
    eval_batches,
    fused_features,
    model_forward,
    parse_toggles,
    prepare_cohort,
    score_subjects,
)
from hobnet.harness import nested_hierarchy, synth_generate
from hobnet.hcnn import POOL_BINS
from hobnet.hgnn import ENCODERS
from hobnet.population import embed_subjects
from hobnet.rng import named_stream

from oracles import embeddings_in_eights, scores_in_eights, subject_batch_loss, subject_features, subject_forward

SIZES = (1, 3, 8)


def small_config(toggles: str, encoder: str = "res-cheb") -> ModelConfig:
    return ModelConfig(
        toggles=TOGGLES[toggles],
        hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4, encoder=encoder),
        hcnn=HcnnConfig(kernel_sizes=(5, 3), channels=(2, 3), strides=(2, 2), mlp_hidden=(8,), out_dim=4),
        head_hidden=(8,),
    )


def model_params(cfg: ModelConfig, subs, seed: int = 5):
    widths = {level: subs[0].levels[level].width for level in LEVELS}
    return build_model_params(cfg, widths, subs[0].fc_len, seed)


@pytest.fixture(scope="module")
def prepared():
    """Sixteen prepared subjects per encoder on an 8-ROI hierarchy."""
    hierarchy = nested_hierarchy(2, 2, 2)
    cohort = synth_generate(16, hierarchy, signal=0.8, noise=0.3, seed=3, n_timepoints=60)
    return {encoder: prepare_cohort(cohort, hierarchy, 0.3, encoder=encoder) for encoder in ENCODERS}


def gradients(params, make_loss) -> dict[str, np.ndarray]:
    params.zero_grad()
    with Tape() as tape:
        value = make_loss()
    backward(tape, value)
    return {name: params[name].grad.copy() for name in params}


def assert_close(got, want, what):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=what)


@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("toggles", sorted(TOGGLES))
def test_batched_path_matches_the_per_subject_oracle(prepared, toggles, encoder):
    subs = prepared[encoder]
    cfg = small_config(toggles, encoder)
    params = model_params(cfg, subs)
    order = named_stream(11, "batch-order").permutation(len(subs))
    for size in SIZES:
        chosen = order[:size]
        batch = subs.take(chosen)
        features = fused_features(params, cfg, batch).data
        probs = model_forward(params, cfg, batch).data
        for row, i in enumerate(chosen):
            assert_close(features[row], subject_features(params, cfg, subs[i]).data, f"features B={size}")
            assert_close(probs[row], subject_forward(params, cfg, subs[i]).data, f"probs B={size}")
        train = (0.0, named_stream(0, "dropout"))  # rate 0: a training forward draws no mask
        batched = gradients(
            params, lambda: cross_entropy(model_forward(params, cfg, batch, train), batch.labels)
        )
        per_subject = gradients(
            params, lambda: subject_batch_loss(params, cfg, [subs[i] for i in chosen], train)
        )
        for name in params:
            assert_close(batched[name], per_subject[name], f"d/d {name}, B={size}")


def criterion_5_config() -> ModelConfig:
    return ModelConfig(
        toggles=parse_toggles("HGNN+HCNN"),
        hgnn=HgnnConfig(k=3, blocks=3, hidden_dim=16),
        hcnn=HcnnConfig(out_dim=16),
        head_hidden=(64,),
    )


def atlas_scale_cohort(n: int):
    hierarchy = nested_hierarchy(7, 4, 7)
    cohort = synth_generate(n, hierarchy, signal=0.6, noise=0.5, seed=1, n_timepoints=120)
    return prepare_cohort(cohort, hierarchy, {"wan": 0.02, "man": 0.59, "lan": 0.73})


def test_atlas_scale_eval_scores_match_the_per_subject_oracle():
    subs = atlas_scale_cohort(4)
    cfg = criterion_5_config()
    params = model_params(cfg, subs, seed=7)
    assert subs[0].levels["lan"].features.shape == (196, 196)
    # the conv output has length 4774, so the oracle's per-bin loop checks the pool
    assert params["hcnn.mlp.l0.w"].data.shape[0] == 16 * POOL_BINS
    embedded = embed_subjects(params, cfg, subs)
    scores = score_subjects(params, cfg, subs)
    for row, sub in enumerate(subs):
        assert_close(embedded[row], subject_features(params, cfg, sub).data, "features")
        assert_close(scores[row], subject_forward(params, cfg, sub).data[1], "score")


def tape_nodes(run) -> int:
    with Tape() as tape:
        run()
    return len(tape.nodes)


def test_the_training_tape_of_a_batch_of_8_is_as_long_as_a_batch_of_1(prepared):
    subs = prepared["res-cheb"]
    cfg = small_config("hgnn+hcnn")
    params = model_params(cfg, subs)
    train = (0.0, named_stream(0, "dropout"))

    def train_loss(size):
        batch = subs.take(np.arange(size))
        return lambda: cross_entropy(model_forward(params, cfg, batch, train), batch.labels)

    assert tape_nodes(train_loss(8)) == tape_nodes(train_loss(1)) == 86


def test_a_training_mini_batch_of_the_criterion_5_model_records_a_fixed_tape(prepared):
    # HGNN+HCNN with k 3 and 3 blocks, at small widths: the node count and the
    # per-op histogram depend on the layout, not on the widths or batch size
    cfg = ModelConfig(
        toggles=TOGGLES["hgnn+hcnn"],
        hgnn=HgnnConfig(k=3, blocks=3, hidden_dim=4),
        hcnn=HcnnConfig(kernel_sizes=(5, 3), channels=(2, 3), strides=(2, 2), mlp_hidden=(8,), out_dim=4),
        head_hidden=(8,),
    )
    subs = prepared["res-cheb"]
    params = model_params(cfg, subs)
    batch = subs.take(np.arange(8))
    with Tape() as tape:
        cross_entropy(model_forward(params, cfg, batch, (0.0, named_stream(0, "dropout"))), batch.labels)
    assert Counter(node.op for node in tape.nodes) == {
        "add": 9, "affine": 15, "cheb-conv": 9, "concat": 8, "conv1d": 2, "cross-entropy": 1,
        "matmul": 6, "mean-over-axis": 3, "outer-product": 1, "per-block-norm": 9, "relu": 17,
        "reshape": 10, "softmax": 4, "transpose": 3, "upper-triangle-flatten": 4,
    }
    assert len(tape.nodes) == 101


def test_scoring_a_full_stack_records_no_more_than_scoring_one_subject(prepared, monkeypatch):
    subs = prepared["res-cheb"]
    cfg = small_config("hgnn+hcnn")
    params = model_params(cfg, subs)
    calls = []
    forward = ffc.model_forward
    monkeypatch.setattr(ffc, "model_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    counts = []
    for n in (1, len(subs)):
        calls.clear()
        nodes = tape_nodes(lambda: score_subjects(params, cfg, subs.take(slice(n))))
        embed_nodes = tape_nodes(lambda: embed_subjects(params, cfg, subs.take(slice(n))))
        counts.append((nodes, embed_nodes, len(calls)))
    assert counts[1] == counts[0]
    assert counts[0][2] == 1


def fc_only_batch(n: int, fc_len: int) -> SubjectBatch:
    """``n`` subjects with ``fc_len``-long FC vectors and no graph levels:
    enough for ``eval_batches`` to size its stacks."""
    return SubjectBatch([f"s{i}" for i in range(n)], np.zeros(n, dtype=int), {}, np.zeros((n, 1, fc_len)))


class TestEvalStacks:
    """Scoring and embedding run one eval forward per stack of as many
    subjects as have their FC vectors fit in ``autodiff.CHUNK_BYTES``."""

    @pytest.mark.parametrize(
        "n, rois, stacks",
        [
            (0, 16, []), (200, 16, [200]), (1092, 16, [1092]), (1093, 16, [1092, 1]),
            (12, 196, [6, 6]), (13, 196, [6, 6, 1]),
        ],
    )
    def test_the_budget_sizes_the_stacks(self, n, rois, stacks):
        batch = fc_only_batch(n, rois * (rois - 1) // 2)
        parts = list(eval_batches(batch))
        assert [len(part) for part in parts] == stacks
        assert sum((part.subject_ids for part in parts), []) == batch.subject_ids
        assert all(np.shares_memory(part.fc_input, batch.fc_input) for part in parts)

    @pytest.mark.parametrize(
        "budget, stacks",
        [(3 * 8 * 120, [3, 3, 3, 1]), (3 * 8 * 120 - 1, [2] * 5), (8 * 120 - 1, [1] * 10), (1 << 30, [10])],
        ids=["three FC vectors", "just under three", "under one", "all ten"],
    )
    def test_a_budget_splits_as_its_name_says(self, monkeypatch, budget, stacks):
        monkeypatch.setattr(autodiff, "CHUNK_BYTES", budget)
        assert [len(part) for part in eval_batches(fc_only_batch(10, 120))] == stacks

    def test_acceptance_scale_is_one_stack_within_1e12_of_stacks_of_eight(self):
        hierarchy = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(200, hierarchy, signal=0.6, noise=0.5, seed=1, n_timepoints=120)
        subs = prepare_cohort(cohort, hierarchy, 0.3)
        cfg = criterion_5_config()
        params = model_params(cfg, subs, seed=7)
        assert [len(part) for part in eval_batches(subs)] == [200]
        assert_close(score_subjects(params, cfg, subs), scores_in_eights(params, cfg, subs), "scores")
        assert_close(embed_subjects(params, cfg, subs), embeddings_in_eights(params, cfg, subs), "embeddings")

    def test_atlas_scale_stacks_of_six_give_the_bytes_of_stacks_of_eight(self):
        subs = atlas_scale_cohort(12)
        cfg = criterion_5_config()
        params = model_params(cfg, subs, seed=7)
        assert [len(part) for part in eval_batches(subs)] == [6, 6]
        assert score_subjects(params, cfg, subs).tobytes() == scores_in_eights(params, cfg, subs).tobytes()
        assert embed_subjects(params, cfg, subs).tobytes() == embeddings_in_eights(params, cfg, subs).tobytes()
