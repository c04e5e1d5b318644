"""Synthetic cohorts, split plans, metrics, and driver determinism."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hobnet.connectivity import pearson_fc
from hobnet.ffc import TrainConfig, fit
from hobnet.harness import (
    Cohort,
    ExperimentRow,
    HarnessError,
    Metrics,
    SingleClassError,
    compute_metrics,
    evaluate_fit,
    holdout_plan,
    kfold_plan,
    make_splits,
    mann_whitney_auc,
    nested_hierarchy,
    read_cohort,
    read_phenotypes_csv,
    read_split_plan,
    run_ablation,
    run_experiment,
    synth_generate,
    write_cohort,
    write_metrics_csv,
)

from test_ffc import small_config


def auc_pair_counting(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestSynthGenerate:
    def test_same_seed_is_bitwise_identical(self):
        h = nested_hierarchy(2, 2, 2)
        c1 = synth_generate(6, h, seed=3)
        c2 = synth_generate(6, h, seed=3)
        for a, b in zip(c1.subjects, c2.subjects):
            np.testing.assert_array_equal(a.timeseries.samples, b.timeseries.samples)
            assert a.phenotype == b.phenotype
            assert a.label == b.label

    def test_zero_signal_classes_share_the_generative_law(self):
        # the label only gates the shared-factor mixing, which vanishes at 0
        h = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(60, h, signal=0.0, noise=0.5, seed=4, n_timepoints=100)
        planted = [i for i, r in enumerate(h.ordered_rois) if h.wan_partition[h.man_partition[r]] in h.networks[:2]]
        diffs = class_mean_fc_difference(cohort, planted)
        assert np.max(np.abs(diffs)) < 0.15

    def test_planted_signal_raises_cross_network_fc(self):
        h = nested_hierarchy(4, 2, 2)
        cohort = synth_generate(200, h, signal=0.6, noise=0.5, seed=5, n_timepoints=120)
        net_of = [h.wan_partition[h.man_partition[r]] for r in h.ordered_rois]
        rois_a = [i for i, n in enumerate(net_of) if n == h.networks[0]]
        rois_b = [i for i, n in enumerate(net_of) if n == h.networks[1]]
        means = {0: [], 1: []}
        for record in cohort.subjects:
            fc = pearson_fc(record.timeseries).values
            means[record.label].append(np.mean(fc[np.ix_(rois_a, rois_b)]))
        difference = np.mean(means[1]) - np.mean(means[0])
        assert difference > 0.2

    def test_signal_above_one_is_an_error(self):
        with pytest.raises(HarnessError, match="<= 1"):
            synth_generate(4, nested_hierarchy(2, 1, 2), signal=1.5)

    def test_no_signal_classifier_stays_at_chance(self):
        # sanity band: with nothing planted, held-out AUC sits near 0.5
        from hobnet.ffc import fit, score_subjects, prepare_cohort

        h = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(260, h, signal=0.0, noise=0.5, seed=17, n_timepoints=60)
        ids = cohort.ids()
        train_ids, test_ids = ids[:60], ids[60:]
        cfg = small_config()
        result = fit(cohort, h, cfg, TrainConfig(epochs=8, seed=2, batch_size=16),
                     subject_ids=train_ids)
        subs = prepare_cohort(cohort, h, result.gammas, encoder=cfg.hgnn.encoder,
                              subject_ids=test_ids)
        scores = score_subjects(result.params, cfg, subs)
        labels = np.array([s.label for s in subs])
        auc = mann_whitney_auc(scores, labels)
        assert 0.4 <= auc <= 0.6, f"no-signal AUC {auc}"

    def test_single_network_hierarchy_cannot_plant_signal(self):
        with pytest.raises(HarnessError, match="2 networks"):
            synth_generate(4, nested_hierarchy(1, 2, 2), signal=0.5)


def class_mean_fc_difference(cohort, planted_rois):
    means = {0: [], 1: []}
    for record in cohort.subjects:
        fc = pearson_fc(record.timeseries).values
        means[record.label].append(fc[np.ix_(planted_rois, planted_rois)])
    return np.mean(means[1], axis=0) - np.mean(means[0], axis=0)


class TestSplits:
    def cohort_of(self, n, imbalance=0.5, seed=0):
        h = nested_hierarchy(2, 1, 2)
        cohort = synth_generate(n, h, signal=0.0, seed=seed, n_timepoints=30)
        cut = int(n * imbalance)
        for i, record in enumerate(cohort.subjects):
            record.label = 1 if i < cut else 0
        return Cohort(subjects=cohort.subjects)

    def test_kfold_ten_subjects_five_disjoint_pairs(self):
        cohort = self.cohort_of(10)
        plan = make_splits(cohort, kfold_plan(seed=1, k=5))
        folds = plan.folds()
        assert len(folds) == 5
        seen = []
        for fold in folds:
            members = plan.subjects_in(fold)
            assert len(members) == 2
            seen.extend(members)
        assert sorted(seen) == sorted(cohort.ids())

    def test_holdout_100_subjects_exact_sizes(self):
        cohort = self.cohort_of(100)
        plan = make_splits(cohort, holdout_plan(seed=2))
        assert len(plan.subjects_in("train")) == 70
        assert len(plan.subjects_in("val")) == 10
        assert len(plan.subjects_in("test")) == 20

    def test_stratification_within_one_subject(self):
        cohort = self.cohort_of(100, imbalance=0.6, seed=1)
        plan = make_splits(cohort, holdout_plan(seed=3))
        labels = cohort.labels()
        for part, frac in (("train", 0.7), ("val", 0.1), ("test", 0.2)):
            members = plan.subjects_in(part)
            positives = sum(labels[sid] for sid in members)
            assert abs(positives - 60 * frac) <= 1.0, part

    def test_deterministic_by_seed(self):
        cohort = self.cohort_of(30)
        a = make_splits(cohort, holdout_plan(seed=4))
        b = make_splits(cohort, holdout_plan(seed=4))
        assert a.assignments == b.assignments
        c = make_splits(cohort, holdout_plan(seed=5))
        assert a.assignments != c.assignments

    def test_kfold_twelve_parts_in_numeric_order(self):
        cohort = self.cohort_of(24)
        plan = make_splits(cohort, kfold_plan(seed=0, k=12))
        expected = [f"fold{i}" for i in range(12)]
        assert plan.folds() == expected
        assert [part for part, _, _ in plan.scored_parts()] == expected
        for part, train, ids in plan.scored_parts():
            assert ids == plan.subjects_in(part)
            assert not set(train) & set(ids)
            assert sorted(train + ids) == sorted(cohort.ids())

    def test_holdout_scores_test_part_and_trains_on_train_part(self):
        cohort = self.cohort_of(30)
        plan = make_splits(cohort, holdout_plan(seed=4))
        assert plan.scored_parts() == [("test", plan.subjects_in("train"), plan.subjects_in("test"))]

    def test_kfold_class_too_small_is_an_error(self):
        cohort = self.cohort_of(8, imbalance=0.25, seed=2)  # 2 positives
        with pytest.raises(HarnessError, match="fewer than"):
            make_splits(cohort, kfold_plan(seed=0, k=4))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(HarnessError, match="sum to 1"):
            holdout_plan(seed=0, fractions=(0.5, 0.2, 0.2))

    def test_plan_json_roundtrip(self, tmp_path):
        cohort = self.cohort_of(10)
        plan = make_splits(cohort, holdout_plan(seed=6))
        path = tmp_path / "plan.json"
        import json

        path.write_text(json.dumps(plan.to_json()))
        back = read_split_plan(path)
        assert back.assignments == plan.assignments
        assert back.fractions == plan.fractions


class TestMetrics:
    def fixture_scores(self):
        # TP=3, FN=1, TN=4, FP=2 at threshold 0.5
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7])
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        return scores, labels

    def test_confusion_fixture(self):
        scores, labels = self.fixture_scores()
        m = compute_metrics(scores, labels)
        assert m.sen == pytest.approx(0.75)
        assert m.spec == pytest.approx(4 / 6)
        assert m.acc == pytest.approx(0.7)

    def test_avg_is_mean_of_four(self):
        m = Metrics(acc=0.8, sen=0.7, spec=0.6, auc=0.9)
        assert m.avg == pytest.approx(0.75)

    def test_perfect_separation_gives_auc_one(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert mann_whitney_auc(scores, labels) == 1.0

    def test_all_equal_scores_give_auc_half(self):
        scores = np.full(8, 0.5)
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 1])
        assert mann_whitney_auc(scores, labels) == 0.5

    def test_auc_equals_pair_counting_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            expected = auc_pair_counting(scores, labels)
            assert mann_whitney_auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_single_class_raises_for_auc(self):
        scores = np.array([0.2, 0.6])
        labels = np.array([1, 1])
        with pytest.raises(SingleClassError):
            compute_metrics(scores, labels)


class TestCsvDeterminism:
    def rows(self):
        return [
            ExperimentRow("run", 1, 0, Metrics(acc=0.7, sen=1 / 3, spec=0.5, auc=0.9)),
            ExperimentRow("run", 2, 1, Metrics(acc=0.65, sen=0.7, spec=2 / 3, auc=0.8)),
        ]

    def test_identical_bytes_across_writes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, self.rows())
        write_metrics_csv(p2, self.rows())
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_full_precision(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, self.rows())
        lines = path.read_text().splitlines()
        assert lines[0] == "run_id,seed,fold,acc,sen,spec,auc,avg"
        assert "0.3333333333333333" in lines[1]


# rows appended to a valid cohort's CSVs: well-formed rows with plausible or
# arbitrary cells, or ragged rows of anything
_ID = st.one_of(st.sampled_from(["s0000", "s0003", "s9"]), st.text(max_size=3))
_WORD = st.one_of(st.sampled_from(["F", "site-a", ""]), st.text(max_size=3))
_LABEL = st.one_of(st.sampled_from(["0", "1", "2", ""]), st.text(max_size=3))
_AGE = st.one_of(
    st.sampled_from(["12.5", "0", "-3", "nan", "inf"]), st.floats().map(repr), st.text(max_size=3)
)
LABEL_ROWS = st.lists(
    st.one_of(st.tuples(_ID, _LABEL).map(list), st.lists(_LABEL, min_size=1, max_size=3)), max_size=3
)
PHENOTYPE_ROWS = st.lists(
    st.one_of(st.tuples(_ID, _WORD, _AGE, _WORD).map(list), st.lists(_WORD, min_size=1, max_size=5)),
    max_size=4,
)


class TestCohortIo:
    def test_roundtrip_preserves_samples_and_phenotypes(self, tmp_path):
        h = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(6, h, seed=9, n_timepoints=40)
        write_cohort(tmp_path / "cohort", cohort, hierarchy=h)
        back = read_cohort(tmp_path / "cohort")
        assert back.ids() == cohort.ids()
        for a, b in zip(cohort.subjects, back.subjects):
            np.testing.assert_array_equal(a.timeseries.samples, b.timeseries.samples)
            assert a.label == b.label
            assert a.phenotype == b.phenotype

    @pytest.mark.parametrize(
        "name, find, replace, message",
        [
            ("labels.csv", "s0003,1", "s0003,yes", r"labels\.csv: row 5: subject 's0003': label 'yes'"),
            ("labels.csv", "s0003,1", "s0003", r"labels\.csv: row 5: subject 's0003': row length"),
            ("phenotypes.csv", "s0002,", "s9999,", r"phenotypes\.csv: no row for subject 's0002' \(row 4 of"),
            ("labels.csv", "s0003,1", "s0003,1\ns0003,0",
             r"labels\.csv: rows 5 and 6: subject 's0003' appears twice"),
            ("phenotypes.csv", "\ns0003,", "\ns0002,M,20.0,site-a\ns0003,",
             r"phenotypes\.csv: rows 4 and 5: subject 's0002' appears twice"),
        ],
    )
    def test_bad_cohort_files_name_file_row_and_subject(self, tmp_path, name, find, replace, message):
        h = nested_hierarchy(2, 2, 2)
        write_cohort(tmp_path, synth_generate(6, h, seed=9, n_timepoints=40), hierarchy=h)
        path = tmp_path / name
        path.write_text(path.read_text().replace(find, replace))
        with pytest.raises(HarnessError, match=message):
            read_cohort(tmp_path)

    def test_non_numeric_age_names_file_row_and_subject(self, tmp_path):
        path = tmp_path / "phenotypes.csv"
        path.write_text("subject-id,gender,age,site\ns0,F,12.5,a\ns1,M,twelve,b\n")
        with pytest.raises(HarnessError, match=r"phenotypes\.csv: row 3: subject 's1': .*'twelve'"):
            read_phenotypes_csv(path)

    @settings(max_examples=150, deadline=None)
    @given(PHENOTYPE_ROWS)
    @example([["s0000", "F", "nan", "site-a"]])
    def test_fuzzed_phenotypes_raise_only_harness_errors(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "phenotypes.csv"
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows([["subject-id", "gender", "age", "site"], *rows])
            try:
                records = read_phenotypes_csv(path)
            except HarnessError as exc:
                assert "phenotypes.csv" in str(exc)
                return
        for record in records.values():
            assert 0 < record.age < np.inf and record.gender and record.site

    @settings(max_examples=100, deadline=None)
    @given(LABEL_ROWS)
    @example([["s9", "1"]])
    def test_fuzzed_labels_raise_only_harness_errors(self, rows):
        h = nested_hierarchy(2, 1, 2)
        cohort = synth_generate(4, h, seed=9, n_timepoints=20)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            write_cohort(directory, cohort)
            with (directory / "phenotypes.csv").open("a") as fh:
                fh.write("s9,F,12.5,site-a\n")  # s9 has a phenotype but no time series
            with (directory / "labels.csv").open("a", newline="") as fh:
                csv.writer(fh).writerows(rows)
            try:
                back = read_cohort(directory)
            except HarnessError:
                return
        assert set(back.ids()) >= set(cohort.ids())
        assert all(record.label in (0, 1) for record in back.subjects)

    def test_duplicate_subject_ids_rejected(self):
        h = nested_hierarchy(2, 1, 2)
        cohort = synth_generate(4, h, seed=10, n_timepoints=30)
        subjects = cohort.subjects + [cohort.subjects[0]]
        with pytest.raises(HarnessError, match="unique"):
            Cohort(subjects=subjects)

    def test_too_few_subjects_per_class_rejected(self):
        h = nested_hierarchy(2, 1, 2)
        cohort = synth_generate(4, h, seed=11, n_timepoints=30)
        for record in cohort.subjects:
            record.label = 1
        with pytest.raises(HarnessError, match="class 0"):
            Cohort(subjects=cohort.subjects)


class TestDrivers:
    def test_holdout_experiment_rows_and_determinism(self, tmp_path):
        h = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(20, h, signal=0.8, noise=0.3, seed=12, n_timepoints=60)
        cfg = small_config()
        tc = TrainConfig(epochs=2, seed=0, batch_size=5)
        r1 = run_experiment(cohort, h, cfg, tc, repeats=2, run_id="smoke")
        assert len(r1.rows) == 2
        r2 = run_experiment(cohort, h, cfg, tc, repeats=2, run_id="smoke")
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_metrics_csv(p1, r1.rows)
        write_metrics_csv(p2, r2.rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_kfold_experiment_covers_every_subject_once(self):
        h = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(12, h, signal=0.8, noise=0.3, seed=13, n_timepoints=60)
        cfg = small_config()
        result = run_experiment(cohort, h, cfg, TrainConfig(epochs=1, seed=1), mode="kfold", k=3)
        assert len(result.rows) == 3

    def test_ablation_driver_emits_row_per_toggle_and_seed(self):
        h = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(14, h, signal=0.8, noise=0.3, seed=14, n_timepoints=60)
        cfg = small_config()
        result = run_ablation(
            cohort, h, cfg, TrainConfig(epochs=1, seed=2), toggles=["HGNN", "HCNN"], seeds=2
        )
        assert len(result.rows) == 4
        assert {r.run_id for r in result.rows} == {"HGNN", "HCNN"}

    def test_evaluate_fit_refuses_training_subjects(self):
        h = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(8, h, signal=0.8, noise=0.3, seed=15, n_timepoints=40)
        ids = cohort.ids()
        result = fit(cohort, h, small_config(), TrainConfig(epochs=1, seed=0), subject_ids=ids[:4])
        assert result.subject_ids == ids[:4]
        with pytest.raises(HarnessError, match="1 scored subjects were trained on"):
            evaluate_fit(result, cohort, h, ids[3:])

    def test_evaluate_fit_refuses_subjects_not_in_the_cohort(self):
        h = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(8, h, signal=0.8, noise=0.3, seed=15, n_timepoints=40)
        ids = cohort.ids()
        result = fit(cohort, h, small_config(), TrainConfig(epochs=1, seed=0), subject_ids=ids[:4])
        for scored, count in ((ids[4:] + ["gone1", "gone2"], 2), (["gone1"], 1)):
            with pytest.raises(
                HarnessError, match=rf"{count} scored subjects are not in the cohort \(first 'gone1'\)"
            ):
                evaluate_fit(result, cohort, h, scored)
