"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight end-to-end fit is shared between the criteria that
need a trained model.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from hobnet.autodiff import RowBlocks, Tensor, cross_entropy, finite_difference_check
from hobnet.cli import main as cli_main
from hobnet.connectivity import (
    LEVELS,
    pearson_fc,
    rv_coefficient,
    select_cutoff,
    write_hierarchy_json,
    write_timeseries_csv,
)
from hobnet.ffc import (
    HcnnConfig,
    HgnnConfig,
    ModelConfig,
    TrainConfig,
    build_model_params,
    checkpoint_meta,
    fit,
    load_fit,
    model_forward,
    parse_toggles,
    prepare_cohort,
    prepare_subject,
    save_checkpoint,
)
from hobnet.harness import (
    compute_metrics,
    evaluate_fit,
    holdout_plan,
    make_splits,
    nested_hierarchy,
    run_ablation,
    run_experiment,
    synth_generate,
    write_metrics_csv,
)
from hobnet.hcnn import dr_flatten
from hobnet.hgnn import afm_weights, level_encoder
from hobnet.population import (
    build_phenotype_encoder,
    embed_subjects,
    gcn_classify,
    head_forward,
    phenotype_similarity_m2,
    population_adjacency,
    similarity_m1,
    standardize_phenotypes,
    train_population_head,
    weight_matrix,
)
from hobnet.spectral import cheb_apply, normalized_laplacian

from conftest import random_timeseries, toy_hierarchy_4_6_10
from oracles import row_runs, spectral_filter_exact


def report(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion}: {detail}")


# shared full-scale run (criteria 5, 11, 12) -------------------------------

FULL_SEED = 2024
SPLIT_SEED = 7


@pytest.fixture(scope="module")
def full_run():
    started = time.time()
    hierarchy = nested_hierarchy(4, 2, 2)
    cohort = synth_generate(200, hierarchy, signal=0.6, noise=0.5, seed=FULL_SEED, n_timepoints=120)
    cfg = ModelConfig(
        toggles=parse_toggles("HGNN+HCNN"),
        hgnn=HgnnConfig(k=3, blocks=3, hidden_dim=16),
        hcnn=HcnnConfig(out_dim=16),
        head_hidden=(64,),
    )
    train_cfg = TrainConfig(learning_rate=1e-4, epochs=100, seed=SPLIT_SEED, batch_size=8)
    plan = make_splits(cohort, holdout_plan(seed=SPLIT_SEED))
    result = fit(cohort, hierarchy, cfg, train_cfg, subject_ids=plan.subjects_in("train"))
    metrics = evaluate_fit(result, cohort, hierarchy, plan.subjects_in("test"))
    elapsed = time.time() - started
    return {
        "hierarchy": hierarchy,
        "cohort": cohort,
        "cfg": cfg,
        "plan": plan,
        "result": result,
        "elapsed": elapsed,
        "metrics": metrics,
    }


class TestCriterion1GradientCorrectness:
    def test_full_model_matches_central_differences(self):
        started = time.time()
        hierarchy = toy_hierarchy_4_6_10()
        ts = random_timeseries(10, n_timepoints=80, seed=41, names=hierarchy.rois)
        fc_ts = random_timeseries(12, n_timepoints=80, seed=42)
        batch = replace(
            prepare_subject(ts, hierarchy, 0.3, label=1), fc_input=dr_flatten(pearson_fc([fc_ts]))[:, None]
        )
        sub = batch[0]
        cfg = ModelConfig(
            toggles=parse_toggles("HGNN+HCNN"),
            hgnn=HgnnConfig(k=3, blocks=3, hidden_dim=8),
            hcnn=HcnnConfig(kernel_sizes=(7, 5), channels=(4, 8), strides=(2, 2), mlp_hidden=(32,), out_dim=8),
            head_hidden=(16,),
        )
        widths = {lvl: sub.levels[lvl].width for lvl in LEVELS}
        params = build_model_params(cfg, widths, sub.fc_len, seed=13)

        def f():
            return cross_entropy(model_forward(params, cfg, batch), [sub.label])

        fd = finite_difference_check(
            f, params.parameters(), h=1e-5, tolerance=1e-4, max_entries=120, seed=3
        )
        elapsed = time.time() - started
        assert len(fd.entries) >= 100
        assert not fd.skipped, f"kink skips: {[(e.name, e.index) for e in fd.skipped]}"
        assert fd.passed, f"max relative error {fd.max_rel_error}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
        report(1, f"{len(fd.entries)} parameters, max rel error {fd.max_rel_error:.2e}, {elapsed:.1f}s")


class TestCriterion2SpectralExactness:
    def test_recurrence_matches_eigendecomposition_on_100_graphs(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for trial in range(100):
            m = int(rng.integers(2, 17))
            k = int(rng.integers(1, 6))
            density = float(rng.uniform(0.2, 0.9))
            a = (rng.random((m, m)) < density) * rng.random((m, m))
            a = np.triu(a, 1)
            a = a + a.T
            np.fill_diagonal(a, 1.0)
            lap = normalized_laplacian(a, RowBlocks([m]))
            h = Tensor(rng.normal(size=(m, 3)))
            thetas = [Tensor(rng.normal(size=(3, 2))) for _ in range(k)]
            delta = np.max(
                np.abs(spectral_filter_exact(lap, h, thetas) - cheb_apply(Tensor(lap.rescaled), h, thetas).data)
            )
            worst = max(worst, float(delta))
        assert worst <= 1e-8, f"max |exact - recurrence| = {worst}"
        report(2, f"100 graphs, max abs deviation {worst:.2e}")


class TestCriterion3BlockDiagonalLocality:
    def test_feature_perturbations_stay_inside_their_block(self):
        hierarchy = toy_hierarchy_4_6_10()
        ts = random_timeseries(10, n_timepoints=60, seed=51, names=hierarchy.rois)
        batch = prepare_subject(ts, hierarchy, gammas=0.25)
        cfg = HgnnConfig(k=3, blocks=3, hidden_dim=8)
        model_cfg = ModelConfig(toggles=parse_toggles("GNN"), hgnn=cfg)
        widths = {lvl: batch.levels[lvl].width for lvl in LEVELS}
        params = build_model_params(model_cfg, widths, fc_len=45, seed=5)
        checks = 0
        for level_name in ("man", "lan"):
            level = batch.levels[level_name]
            blocks = row_runs(level.norm_blocks)
            base = level_encoder(params, f"hgnn.{level_name}", level, cfg).data[0]
            for b, block in enumerate(blocks):
                bumped_feats = level.features.copy()
                bumped_feats[0, block[0], block[0]] += 2.5
                bumped = replace(level, features=bumped_feats)
                out = level_encoder(params, f"hgnn.{level_name}", bumped, cfg).data[0]
                others = np.concatenate([blk for j, blk in enumerate(blocks) if j != b])
                deviation = np.max(np.abs(out[others] - base[others]))
                assert deviation == 0.0, f"{level_name} block {b}: deviation {deviation}"
                checks += 1
        report(3, f"{checks} block perturbations, cross-block deviation exactly 0.0")


class TestCriterion4RvPropertySuite:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, int(rng.integers(1, 5))))
            b = rng.normal(size=(n, int(rng.integers(1, 5))))
            r = rv_coefficient(a, b)
            assert 0.0 <= r <= 1.0
            assert abs(rv_coefficient(a, a) - 1.0) <= 1e-12
            c = float(rng.uniform(0.1, 10.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
            assert abs(rv_coefficient(c * a, b) - r) <= 1e-12
            assert abs(rv_coefficient(b, a) - r) <= 1e-12
        for _ in range(200):
            n = int(rng.integers(4, 12))
            split = int(rng.integers(1, n - 1))
            a = np.zeros((n, 2))
            b = np.zeros((n, 2))
            a[:split] = rng.normal(size=(split, 2))
            b[split:] = rng.normal(size=(n - split, 2))
            assert rv_coefficient(a, b) == 0.0
        report(4, "1000 random instances + 200 orthogonal-support cases")


class TestCriterion5EndToEndLearning:
    def test_planted_signal_is_learned(self, full_run):
        metrics = full_run["metrics"]
        elapsed = full_run["elapsed"]
        assert metrics.acc >= 0.90, f"test ACC {metrics.acc}"
        assert metrics.auc >= 0.95, f"test AUC {metrics.auc}"
        assert elapsed < 600.0, f"generation+training+evaluation took {elapsed:.0f}s"
        assert full_run["result"].loss_trace[-1] < full_run["result"].loss_trace[0]
        report(
            5,
            f"test ACC {metrics.acc:.3f}, AUC {metrics.auc:.3f}, end to end {elapsed:.0f}s "
            f"(200 subjects, lr 1e-4, 100 epochs)",
        )


class TestCriterion6AblationOrdering:
    def test_full_model_dominates_single_branches(self):
        hierarchy = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(80, hierarchy, signal=0.45, noise=0.7, seed=77, n_timepoints=100)
        cfg = ModelConfig(
            hgnn=HgnnConfig(k=3, blocks=3, hidden_dim=8),
            hcnn=HcnnConfig(out_dim=8, mlp_hidden=(64,)),
            head_hidden=(32,),
        )
        train_cfg = TrainConfig(learning_rate=1e-3, epochs=40, seed=100, batch_size=8)
        result = run_ablation(
            cohort, hierarchy, cfg, train_cfg, toggles=["HGNN+HCNN", "HGNN", "HCNN"], seeds=5
        )
        full = result.for_run("HGNN+HCNN").mean("acc")
        graph_only = result.for_run("HGNN").mean("acc")
        cnn_only = result.for_run("HCNN").mean("acc")
        assert full >= graph_only, f"full {full:.3f} < graph-only {graph_only:.3f}"
        assert full >= cnn_only, f"full {full:.3f} < cnn-only {cnn_only:.3f}"
        report(
            6,
            f"mean ACC over 5 seeds: full {full:.3f} >= graph-only {graph_only:.3f} "
            f"and >= cnn-only {cnn_only:.3f}",
        )


class TestCriterion7MetricOracles:
    def test_auc_against_pair_counting_and_confusion_fixture(self):
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(4, 40))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            expected = float((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)
            got = compute_metrics(scores, labels).auc
            worst = max(worst, abs(got - expected))
        assert worst <= 1e-12, f"max AUC deviation {worst}"
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7])
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        m = compute_metrics(scores, labels)
        assert m.sen == 0.75 and m.acc == 0.7
        assert m.spec == 4 / 6
        report(7, f"1000 AUC sets within {worst:.1e} of pair counting; confusion fixture exact")


class TestCriterion8AfmContract:
    def test_softmax_weights_sum_and_argmax(self):
        rng = np.random.default_rng(314)
        for _ in range(1000):
            size = int(rng.integers(2, 8))
            r = rng.normal(size=size) * float(rng.uniform(0.1, 50.0))
            s = afm_weights(Tensor(r)).data
            assert abs(s.sum() - 1.0) <= 1e-12
            assert int(np.argmax(s)) == int(np.argmax(r))
        report(8, "1000 random weight vectors: sums within 1e-12, argmax preserved")


class TestCriterion9Determinism:
    def test_metrics_csv_is_byte_identical_across_runs(self, tmp_path):
        hierarchy = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(20, hierarchy, signal=0.8, noise=0.3, seed=55, n_timepoints=60)
        cfg = ModelConfig(
            hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4),
            hcnn=HcnnConfig(kernel_sizes=(5, 3), channels=(2, 3), strides=(2, 2), mlp_hidden=(8,), out_dim=4),
            head_hidden=(8,),
        )
        train_cfg = TrainConfig(epochs=3, seed=9, batch_size=5)
        paths = []
        for name in ("a.csv", "b.csv"):
            rows = run_experiment(cohort, hierarchy, cfg, train_cfg, repeats=2, run_id="det").rows
            path = tmp_path / name
            write_metrics_csv(path, rows)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report(9, "two identical runs produced byte-identical metrics CSV")


class TestCriterion10ThresholdProcedure:
    def test_inflection_matches_brute_force_and_curve_is_monotone(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 101)
        fractions = 1.0 / (1.0 + np.exp((grid - 0.42) / 0.05))
        curve = list(zip(grid.tolist(), fractions.tolist()))
        best, best_value = None, -1.0
        for i in range(1, 100):
            left = (fractions[i] - fractions[i - 1]) / (grid[i] - grid[i - 1])
            right = (fractions[i + 1] - fractions[i]) / (grid[i + 1] - grid[i])
            value = abs(2.0 * (right - left) / (grid[i + 1] - grid[i - 1]))
            if value > best_value:
                best, best_value = grid[i], value
        assert select_cutoff(curve) == pytest.approx(best)

        hierarchy = nested_hierarchy(2, 2, 2)
        ts = random_timeseries(8, n_timepoints=60, seed=61, names=hierarchy.rois)
        write_hierarchy_json(tmp_path / "h.json", hierarchy)
        write_timeseries_csv(tmp_path / "ts.csv", ts)
        out = tmp_path / "curve.csv"
        assert cli_main([
            "threshold-curve", "--timeseries", str(tmp_path / "ts.csv"),
            "--hierarchy", str(tmp_path / "h.json"), "--grid", "101", "--out", str(out),
        ]) == 0
        rows = out.read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in rows]
        assert all(a >= b for a, b in zip(values, values[1:]))
        report(10, f"inflection at {best:.2f} matches brute force; CLI curve non-increasing")


class TestCriterion11CheckpointRoundTrip:
    def test_bitwise_parameters_and_identical_outputs(self, full_run, tmp_path):
        result = full_run["result"]
        cfg = full_run["cfg"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params, checkpoint_meta(result))
        loaded = load_fit(path).params
        for name in result.params:
            assert result.params[name].data.tobytes() == loaded[name].data.tobytes(), name
        batch = prepare_cohort(
            full_run["cohort"],
            full_run["hierarchy"],
            result.gammas,
            encoder=cfg.hgnn.encoder,
            subject_ids=full_run["plan"].subjects_in("test")[:5],
        )
        np.testing.assert_array_equal(
            model_forward(result.params, cfg, batch).data, model_forward(loaded, cfg, batch).data
        )
        report(11, f"{len(result.params)} parameters bit-identical, outputs identical")


class TestCriterion12PopulationGraph:
    def test_matrix_contracts_and_accuracy(self, full_run):
        cohort = full_run["cohort"]
        cfg = full_run["cfg"]
        result = full_run["result"]
        plan = full_run["plan"]
        subs = prepare_cohort(cohort, full_run["hierarchy"], result.gammas, encoder=cfg.hgnn.encoder)
        y = embed_subjects(result.params, cfg, subs)
        records = [r.phenotype for r in cohort.subjects]
        m1 = similarity_m1(y)
        m2 = phenotype_similarity_m2(records)
        encoder = build_phenotype_encoder(standardize_phenotypes(records).shape[1], seed=SPLIT_SEED)
        w = weight_matrix(records, encoder)
        _, adjacency = population_adjacency(m1, m2, w, retain_fraction=0.10)
        for name, matrix in (("M1", m1), ("M2", m2), ("W", w), ("A'", adjacency)):
            assert np.max(np.abs(matrix - matrix.T)) <= 1e-12, name
        assert w.min() >= 0.0 and w.max() <= 1.0
        assert m1.min() > 0.0 and m1.max() <= 1.0

        from hobnet.population import build_population_head

        head = build_population_head(y.shape[1], seed=0)
        probe = np.random.default_rng(0).normal(size=(4, y.shape[1]))
        np.testing.assert_allclose(
            gcn_classify(probe, np.eye(4), head).data, head_forward(Tensor(probe), head).data, atol=1e-12
        )

        order = {sid: i for i, sid in enumerate(s.subject_id for s in subs)}
        train_idx = np.array([order[s] for s in plan.subjects_in("train")])
        test_idx = np.array([order[s] for s in plan.subjects_in("test")])
        labels = np.array([s.label for s in subs])
        pop = train_population_head(y, adjacency, labels, train_idx, seed=SPLIT_SEED, epochs=200, lr=1e-3)
        probs = gcn_classify(y, adjacency, pop.head).data
        pop_metrics = compute_metrics(probs[test_idx, 1], labels[test_idx])
        standalone = full_run["metrics"].acc
        assert pop_metrics.acc >= standalone - 0.02, (
            f"popgraph ACC {pop_metrics.acc:.3f} vs standalone {standalone:.3f}"
        )
        report(
            12,
            f"symmetry within 1e-12; identity-adjacency equals bare head; "
            f"popgraph ACC {pop_metrics.acc:.3f} vs standalone {standalone:.3f}",
        )
