"""Stacked subject preparation against the per-subject oracle, bit for bit.

``ffc.prepare_stack`` builds one Gram matrix per subject and derives every
level, retained-edge curve, Laplacian, GCN propagation and FC vector of a
chunk of subjects as stacks, and returns them as one ``SubjectBatch``.
``tests/oracles.py`` keeps the per-subject code, which builds each level
from its own cross-product. Every comparison here is of raw bytes, made on
the batch's per-subject views, but for one: preparation solves each level's
eigenproblem block by block, the oracle the whole matrix at once, so at
atlas scale λ_max and the rescaled Laplacian agree within a relative 1e-14
(48 subjects each: λ_max gaps of up to 9 ulp measured at 116 ROIs, 6 at 196
and 7 at 246, none at 16).
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hobnet import autodiff, connectivity, ffc, population
from hobnet.connectivity import (
    GAMMA_GRID,
    LEVELS,
    MAN,
    ConnectivityError,
    RoiTimeSeries,
    build_adjacency,
    pearson_fc,
    retained_fractions,
)
from hobnet.ffc import (
    CohortConnectivity,
    ModelConfig,
    ModelError,
    SubjectBatch,
    TrainConfig,
    build_model_params,
    fit,
    parse_toggles,
    prepare_cohort,
    prepare_stack,
    prepare_subject,
    score_subjects,
    select_cohort_gammas,
)
from hobnet.harness import Cohort, HarnessError, nested_hierarchy, synth_generate
from hobnet.hcnn import HcnnConfig
from hobnet.hgnn import ENCODERS, HgnnConfig
from hobnet.population import embed_subjects
from hobnet.spectral import normalized_laplacian

import oracles
from conftest import random_timeseries, toy_hierarchy_4_6_10


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def close(got, want, rel: float) -> bool:
    """Bit for bit when ``rel`` is 0, else within ``rel`` of ``want``'s
    largest magnitude."""
    if not rel:
        return same_bits(got, want)
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def assert_same_inputs(got, want, encoder, rel=0.0):
    assert (got.subject_id, got.label) == (want.subject_id, want.label)
    assert same_bits(got.fc_input.data, want.fc_input.data), got.subject_id
    for level in LEVELS:
        a, b = got.levels[level], want.levels[level]
        where = f"{got.subject_id} {level}"
        assert same_bits(a.features, b.features), where
        assert a.norm_blocks.sizes.tolist() == b.norm_blocks.sizes.tolist(), where
        if encoder == "gcn":
            assert a.lap is None and same_bits(a.propagation, b.propagation), where
        else:
            assert a.propagation is None
            assert same_bits(a.lap.laplacian, b.lap.laplacian), where
            assert type(a.lap.lambda_max) is float and close(a.lap.lambda_max, b.lap.lambda_max, rel), where
            assert close(a.lap.rescaled, b.lap.rescaled, rel), where


def assert_matches_oracle(series, hierarchy, encoder, labels=None, rel=0.0):
    """Gamma selection and preparation of ``series`` as stacks, against the
    oracle; ``rel`` as ``assert_same_inputs`` takes it."""
    labels = [i % 2 for i in range(len(series))] if labels is None else labels
    gammas = select_cohort_gammas(series, hierarchy)
    assert gammas == oracles.select_cohort_gammas(series, hierarchy)
    subs = prepare_stack(CohortConnectivity.build(series, hierarchy), hierarchy, gammas, labels, encoder)
    assert len(subs) == len(series)
    for sub, ts, label in zip(subs, series, labels):
        want = oracles.prepare_subject(ts, hierarchy, gammas, label, encoder)
        assert_same_inputs(sub, want, encoder, rel)


def chunk_size(hierarchy) -> int:
    rows = next(connectivity.subject_chunks(10_000, hierarchy))
    return rows.stop - rows.start


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 3 subjects at 16 ROIs, where the module constant holds 512."""
    monkeypatch.setattr(autodiff, "CHUNK_BYTES", 3 * 16 * 16 * 8)


class TestStackedPreparationMatchesOracle:
    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("count", ["one", "chunk", "chunk+1"])
    def test_acceptance_scale_in_chunks_of_3(self, small_chunks, encoder, count):
        h = nested_hierarchy(4, 2, 2)
        assert chunk_size(h) == 3
        n = {"one": 1, "chunk": 3, "chunk+1": 4}[count]
        cohort = synth_generate(8, h, signal=0.6, noise=0.5, seed=5, n_timepoints=120)
        series = [r.timeseries for r in cohort.subjects[:n]]
        assert_matches_oracle(series, h, encoder, labels=[r.label for r in cohort.subjects[:n]])

    @pytest.mark.parametrize("count", ["one", "chunk", "chunk+1"])
    def test_atlas_scale_in_chunks_of_the_module_constant(self, count):
        h = nested_hierarchy(7, 4, 7)
        chunk = chunk_size(h)
        assert chunk >= 2
        n = {"one": 1, "chunk": chunk, "chunk+1": chunk + 1}[count]
        cohort = synth_generate(n + n % 2 + 2, h, signal=0.6, noise=0.5, seed=6, n_timepoints=120)
        assert_matches_oracle([r.timeseries for r in cohort.subjects[:n]], h, "res-cheb", rel=1e-14)

    @pytest.mark.parametrize("encoder", ENCODERS)
    def test_unequal_timepoint_counts(self, small_chunks, encoder):
        h = nested_hierarchy(4, 2, 2)
        series = [
            random_timeseries(16, n_timepoints=t, seed=20 + i, names=h.rois)
            for i, t in enumerate((120, 90, 60, 200, 31))
        ]
        assert_matches_oracle(series, h, encoder)

    @pytest.mark.parametrize("encoder", ENCODERS)
    def test_a_subject_with_shuffled_columns(self, encoder):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(6, h, signal=0.6, noise=0.5, seed=7, n_timepoints=80)
        series = [r.timeseries for r in cohort.subjects]
        order = np.random.default_rng(8).permutation(16)
        ts = series[2]
        series[2] = RoiTimeSeries(ts.subject_id, ts.samples[:, order], [ts.roi_names[i] for i in order])
        assert series[2].roi_names != h.ordered_rois
        assert_matches_oracle(series, h, encoder)

    def test_cohort_and_fit_paths(self):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(10, h, signal=0.6, noise=0.5, seed=9, n_timepoints=60)
        ids = cohort.ids()[2:8]
        records = [r for r in cohort.subjects if r.subject_id in ids]
        gammas = oracles.select_cohort_gammas([r.timeseries for r in records], h)
        for sub, r in zip(prepare_cohort(cohort, h, gammas, subject_ids=ids), records):
            assert_same_inputs(sub, oracles.prepare_subject(r.timeseries, h, gammas, r.label), "res-cheb")
        cfg = ModelConfig(toggles=parse_toggles("GNN"), hgnn=HgnnConfig(hidden_dim=4))
        assert fit(cohort, h, cfg, TrainConfig(epochs=1), subject_ids=ids).gammas == gammas


class TestUnequalParentBlocks:
    """Levels of unequal parent blocks take ``RowBlocks``' padded layout."""

    @staticmethod
    def levels():
        h = toy_hierarchy_4_6_10()
        cohort = synth_generate(6, h, signal=0.6, noise=0.5, seed=21, n_timepoints=60)
        return h, CohortConnectivity.build([r.timeseries for r in cohort.subjects], h).levels

    def test_retained_curves_match_the_dense_count(self):
        h, levels = self.levels()
        assert h.layout(MAN).blocks.sizes.tolist() == [2, 1, 1, 2]
        for lv in LEVELS:
            curves = retained_fractions(levels[lv], h.layout(lv).blocks, GAMMA_GRID)
            for curve, values in zip(curves, levels[lv]):
                assert curve.tolist() == [f for _, f in oracles.retained_edge_curve(values, GAMMA_GRID)], lv

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_laplacians_match_the_dense_eigensolve(self, gamma):
        h, levels = self.levels()
        for lv in LEVELS:
            adjacency = build_adjacency(levels[lv], gamma)
            lap = normalized_laplacian(adjacency, h.layout(lv).blocks)
            for laplacian, lam, a in zip(lap.laplacian, lap.lambda_max, adjacency):
                want = oracles.normalized_laplacian(a)
                assert same_bits(laplacian, want.laplacian), lv
                assert close(lam, want.lambda_max, 1e-14), lv
            if gamma == 1.0:  # self-loops only: the padding must not lift λ_max off the fallback
                assert lap.lambda_max.tolist() == [2.0] * len(adjacency), lv


class TestRefusals:
    @pytest.mark.parametrize("level", ["fc", *LEVELS])
    def test_overflowing_connectivity_is_refused_with_subject_and_level(self, level):
        h = nested_hierarchy(4, 2, 2)
        ts = random_timeseries(16, n_timepoints=60, seed=3, names=h.rois)
        series = [ts, RoiTimeSeries("s0007", ts.samples * 1e160, ts.roi_names)]
        message = f"^subject 's0007': {level} connectivity matrix has NaN or Inf entries$"
        with pytest.raises(ConnectivityError, match=message):
            if level == "fc":
                pearson_fc(series)
            else:
                connectivity.composite_connectivity(connectivity.gram_stack(series, h), h, level)
        if level == LEVELS[0]:  # preparation builds the levels in order, so it stops at the first
            with pytest.raises(ConnectivityError, match=message):
                CohortConnectivity.build(series, h)

    def test_a_missing_hierarchy_roi_names_the_subject(self):
        h = nested_hierarchy(4, 2, 2)
        ts = random_timeseries(16, seed=4, names=h.rois)
        short = RoiTimeSeries("s0042", ts.samples[:, :-1], ts.roi_names[:-1])
        missing = ts.roi_names[-1]
        with pytest.raises(ConnectivityError, match=f"subject 's0042': .* ROI '{missing}'"):
            prepare_subject(short, h, 0.3)

    def test_fc_stack_refuses_a_subject_with_another_column_count(self):
        series = [random_timeseries(5, seed=1), random_timeseries(6, seed=2)]
        with pytest.raises(ConnectivityError, match="subject 'seed2': 6 ROI columns, but subject 'seed1' has 5"):
            pearson_fc(series)

    def test_another_column_count_past_a_chunk_boundary_names_the_subject(self):
        h = nested_hierarchy(7, 4, 7)
        assert chunk_size(h) == 3
        cohort = synth_generate(6, h, signal=0.6, noise=0.5, seed=18, n_timepoints=60)
        extra = np.random.default_rng(19).normal(size=(60, 1))
        records = list(cohort.subjects)
        for i in range(3, 6):  # the second chunk, s0003-s0005, gets one more column
            ts = records[i].timeseries
            wide = RoiTimeSeries(ts.subject_id, np.hstack([ts.samples, extra]), [*ts.roi_names, "extra"])
            records[i] = replace(records[i], timeseries=wide)
        wider = Cohort(subjects=records)
        message = "subject 's0003': 197 ROI columns, but subject 's0000' has 196"
        with pytest.raises(ConnectivityError, match=message):
            prepare_cohort(wider, h, 0.3)
        cfg = ModelConfig(toggles=parse_toggles("GNN"), hgnn=HgnnConfig(hidden_dim=4))
        with pytest.raises(ConnectivityError, match=message):
            fit(wider, h, cfg, TrainConfig(epochs=1))

    def test_labels_not_one_per_subject_are_refused_with_both_counts(self, monkeypatch):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(6, h, signal=0.6, noise=0.5, seed=13, n_timepoints=60)
        connectivity = CohortConnectivity.build([r.timeseries for r in cohort.subjects], h)
        # refused before the FC series are read or any stack is allocated
        monkeypatch.setattr(ffc, "fc_columns", lambda *a: pytest.fail("read the FC series"))
        with pytest.raises(ModelError, match="3 labels for 6 subjects"):
            prepare_stack(connectivity, h, 0.3, [0, 1, 0])

    def test_prepare_cohort_refuses_an_unknown_subject_id(self):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(6, h, signal=0.6, noise=0.5, seed=13, n_timepoints=60)
        with pytest.raises(HarnessError, match=r"1 scored subjects are not in the cohort \(first 'zzz'\)"):
            prepare_cohort(cohort, h, 0.3, subject_ids=["s0000", "zzz"])

    def test_fit_refuses_an_unknown_subject_id(self):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(6, h, signal=0.6, noise=0.5, seed=13, n_timepoints=60)
        cfg = ModelConfig(toggles=parse_toggles("GNN"), hgnn=HgnnConfig(hidden_dim=4))
        ids = [*cohort.ids(), "nope", "gone"]
        with pytest.raises(HarnessError, match=r"2 training subjects are not in the cohort \(first 'nope'\)"):
            fit(cohort, h, cfg, TrainConfig(epochs=1), subject_ids=ids)


def small_model(encoder: str = "res-cheb") -> ModelConfig:
    return ModelConfig(
        toggles=parse_toggles("HGNN+HCNN"),
        hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4, encoder=encoder),
        hcnn=HcnnConfig(out_dim=4),
        head_hidden=(8,),
    )


def stacks(batch: SubjectBatch) -> dict[str, np.ndarray]:
    """Every array of a batch's levels and its FC vectors, by name."""
    out = {"fc": batch.fc_input}
    for lv, level in batch.levels.items():
        out[f"{lv} features"] = level.features
        if level.lap is None:
            out[f"{lv} propagation"] = level.propagation
        else:
            out[f"{lv} laplacian"] = level.lap.laplacian
    return out


class TestOneStack:
    """Preparation returns one stack; views, eval slices and fit read it, not copies of it."""

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("chunks", ["one chunk", "chunks of 3"])
    def test_views_and_eval_slices_share_memory_with_the_prepared_stack(self, monkeypatch, encoder, chunks):
        # a budget of three 16-ROI Gram matrices holds six 120-entry FC
        # vectors: preparation runs in chunks of 3 and scoring in stacks of 6
        eval_stacks = [11]
        if chunks == "chunks of 3":
            monkeypatch.setattr(autodiff, "CHUNK_BYTES", 3 * 16 * 16 * 8)
            eval_stacks = [6, 5]
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(11, h, signal=0.6, noise=0.5, seed=14, n_timepoints=60)
        batch = prepare_cohort(cohort, h, 0.3, encoder=encoder)
        prepared = stacks(batch)
        graph = "propagation" if encoder == "gcn" else "laplacian"
        assert (len(batch), batch.subject_ids, list(batch.labels)) == (
            len(cohort.subjects), cohort.ids(), [r.label for r in cohort.subjects]
        )
        for i, sub in enumerate(batch):
            assert (sub.subject_id, sub.label) == (batch.subject_ids[i], batch.labels[i])
            assert sub.fc_input.shape == (1, batch.fc_len)
            assert np.shares_memory(sub.fc_input.data, prepared["fc"])
            for lv in LEVELS:
                level = sub.levels[lv]
                assert np.shares_memory(level.features, prepared[f"{lv} features"])
                matrix = level.propagation if encoder == "gcn" else level.lap.laplacian
                assert matrix.shape == level.features.shape == (level.width,) * 2
                assert np.shares_memory(matrix, prepared[f"{lv} {graph}"])

        seen = []

        def recording(fn):
            def wrapper(params, cfg, part, *args, **kwargs):
                seen.append(part)
                return fn(params, cfg, part, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(ffc, "model_forward", recording(ffc.model_forward))
        monkeypatch.setattr(population, "fused_features", recording(population.fused_features))
        cfg = small_model(encoder)
        params = build_model_params(cfg, batch.level_widths, batch.fc_len, seed=3)
        assert score_subjects(params, cfg, batch).shape == (len(batch),)
        assert embed_subjects(params, cfg, batch).shape == (len(batch), cfg.fused_width())
        assert [len(part) for part in seen] == eval_stacks * 2
        for part in seen:
            for name, array in stacks(part).items():
                assert np.shares_memory(array, prepared[name]), name

    @pytest.mark.parametrize("encoder", ENCODERS)
    def test_the_features_are_the_connectivity_stacks_across_chunks(self, small_chunks, encoder):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(8, h, signal=0.6, noise=0.5, seed=17, n_timepoints=60)
        series = [r.timeseries for r in cohort.subjects]
        assert len(list(connectivity.subject_chunks(len(series), h))) == 3
        built = CohortConnectivity.build(series, h)
        batch = prepare_stack(built, h, 0.3, [r.label for r in cohort.subjects], encoder)
        for lv in LEVELS:
            assert batch.levels[lv].features is built.levels[lv]
            assert np.shares_memory(batch.levels[lv].features, built.levels[lv])

    def test_preparation_peak_memory_does_not_grow_with_the_cohort(self):
        h = nested_hierarchy(7, 4, 7)
        assert chunk_size(h) == 3
        cohort = synth_generate(24, h, signal=0.6, noise=0.5, seed=17, n_timepoints=120)
        prepare_cohort(cohort, h, 0.3, subject_ids=cohort.ids()[:1])  # the hierarchy's cached layouts
        above_retained = {}
        for n in (12, 24):
            ids = cohort.ids()[:n]
            batch, peak, retained = oracles.traced_peak(lambda: prepare_cohort(cohort, h, 0.3, subject_ids=ids))
            assert len(batch) == n
            above_retained[n] = (peak - retained) / 2**20
        assert abs(above_retained[24] - above_retained[12]) <= 0.5, above_retained

    def test_fit_takes_its_mini_batches_from_the_prepared_stack(self, monkeypatch):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(12, h, signal=0.6, noise=0.5, seed=15, n_timepoints=60)
        made, taken_from = [], []
        prepare, take = ffc.prepare_stack, SubjectBatch.take

        def recording_prepare(*args, **kwargs):
            batch = prepare(*args, **kwargs)
            made.append(stacks(batch))
            return batch

        def recording_take(self, index):
            taken_from.append(stacks(self))
            return take(self, index)

        monkeypatch.setattr(ffc, "prepare_stack", recording_prepare)
        monkeypatch.setattr(SubjectBatch, "take", recording_take)
        fit(cohort, h, small_model(), TrainConfig(epochs=2, batch_size=5, seed=1))
        assert len(made) == 1 and len(taken_from) == 2 * 3
        for arrays in taken_from:  # the very arrays preparation made, not copies of them
            assert all(arrays[name] is made[0][name] for name in made[0])

    def test_zero_subjects_are_refused_and_an_empty_slice_scores_to_nothing(self):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(6, h, signal=0.6, noise=0.5, seed=16, n_timepoints=60)
        with pytest.raises(ModelError, match="no subjects to prepare"):
            prepare_cohort(cohort, h, 0.3, subject_ids=[])
        empty = prepare_cohort(cohort, h, 0.3).take(slice(0))
        assert len(empty) == 0 and list(empty) == []
        cfg = small_model()
        params = build_model_params(cfg, empty.level_widths, empty.fc_len, seed=3)
        scores = score_subjects(params, cfg, empty)
        assert scores.shape == (0,) and scores.dtype == np.float64

    def test_an_empty_slice_embeds_to_no_rows(self):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(6, h, signal=0.6, noise=0.5, seed=16, n_timepoints=60)
        empty = prepare_cohort(cohort, h, 0.3).take(slice(0, 0))
        cfg = small_model()
        params = build_model_params(cfg, empty.level_widths, empty.fc_len, seed=3)
        rows = embed_subjects(params, cfg, empty)
        assert rows.shape == (0, cfg.fused_width()) and rows.dtype == np.float64


class TestStackedCallCounts:
    """Call counts are deterministic where wall time on a shared host is not."""

    def counted(self, monkeypatch):
        counts = Counter()
        gram_stack = ffc.gram_stack

        def counting_gram_stack(series, hierarchy):
            counts["grams"] += len(series)
            return gram_stack(series, hierarchy)

        monkeypatch.setattr(ffc, "gram_stack", counting_gram_stack)
        targets = [(ffc, n) for n in ("composite_connectivity", "build_graph_set", "normalized_laplacian", "pearson_fc")]
        for module, name in [*targets, (connectivity, "level_connectivity")]:
            monkeypatch.setattr(module, name, self.counting(counts, name, getattr(module, name)))
        return counts

    @staticmethod
    def counting(counts, name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def test_fit_builds_one_gram_per_subject_and_stacked_calls_do_not_grow(self, monkeypatch):
        counts = self.counted(monkeypatch)
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(24, h, signal=0.6, noise=0.5, seed=11, n_timepoints=60)
        cfg = ModelConfig(
            toggles=parse_toggles("HGNN+HCNN"), hgnn=HgnnConfig(hidden_dim=4), hcnn=HcnnConfig(out_dim=4)
        )
        calls = {}
        for n in (6, 12, 24):
            counts.clear()
            fit(cohort, h, cfg, TrainConfig(epochs=1, seed=0), subject_ids=cohort.ids()[:n])
            assert counts.pop("grams") == n
            calls[n] = dict(counts)
        assert calls[6] == calls[12] == calls[24]
        assert calls[6]["composite_connectivity"] == len(LEVELS)

    def test_prepare_cohort_calls_do_not_grow_within_a_chunk(self, monkeypatch):
        counts = self.counted(monkeypatch)
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(24, h, signal=0.6, noise=0.5, seed=12, n_timepoints=60)
        calls = {}
        for n in (4, 24):
            counts.clear()
            prepare_cohort(cohort, h, 0.3, subject_ids=cohort.ids()[:n])
            assert counts.pop("grams") == n
            calls[n] = dict(counts)
        assert calls[4] == calls[24]
