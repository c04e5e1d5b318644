"""End-to-end command line flows on a tiny synthetic cohort."""

import csv
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from hobnet.cli import main
from hobnet.connectivity import RoiTimeSeries, write_hierarchy_json, write_timeseries_csv
from hobnet.ffc import (
    ModelConfig,
    TrainConfig,
    checkpoint_meta,
    load_checkpoint,
    load_fit,
    parse_toggles,
    save_checkpoint,
)
from hobnet.harness import (
    Cohort,
    Metrics,
    SubjectRecord,
    kfold_plan,
    make_splits,
    nested_hierarchy,
    read_cohort,
    read_split_plan,
    run_experiment,
    synth_generate,
    write_cohort,
)
from hobnet.hgnn import HgnnConfig

from conftest import random_timeseries


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    hierarchy = nested_hierarchy(2, 2, 2)
    write_hierarchy_json(root / "hierarchy.json", hierarchy)
    ts = random_timeseries(8, n_timepoints=60, seed=1, names=hierarchy.rois)
    write_timeseries_csv(root / "ts.csv", ts)
    assert main([
        "synth", "--subjects", "12", "--seed", "3", "--signal", "0.8", "--noise", "0.3",
        "--hierarchy", str(root / "hierarchy.json"), "--out", str(root / "cohort"),
    ]) == 0
    return root


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestSynthAndGraphgen:
    def test_synth_wrote_cohort_directory(self, workspace):
        out = workspace / "cohort"
        assert (out / "labels.csv").exists()
        assert (out / "phenotypes.csv").exists()
        assert (out / "split_plan.json").exists()
        assert len(list((out / "timeseries").glob("*.csv"))) == 12

    def test_graphgen_with_fixed_gamma(self, workspace):
        out = workspace / "graphs.json"
        code = run(
            "graphgen", "--timeseries", workspace / "ts.csv",
            "--hierarchy", workspace / "hierarchy.json",
            "--gamma", 0.4, "--mode", "binary", "--out", out,
        )
        assert code == 0
        records = json.loads(out.read_text())
        assert [r["level"] for r in records] == ["wan", "man", "lan"]
        assert all(r["gamma"] == 0.4 for r in records)

    def test_graphgen_with_retained_percentage(self, workspace):
        out = workspace / "graphs_pct.json"
        code = run(
            "graphgen", "--timeseries", workspace / "ts.csv",
            "--hierarchy", workspace / "hierarchy.json",
            "--retained-pct", 25, "--mode", "weighted", "--out", out,
        )
        assert code == 0
        records = json.loads(out.read_text())
        assert all(0.0 <= r["gamma"] <= 1.0 for r in records)

    def test_graphgen_requires_exactly_one_threshold_flag(self, workspace):
        with pytest.raises(SystemExit):
            run(
                "graphgen", "--timeseries", workspace / "ts.csv",
                "--hierarchy", workspace / "hierarchy.json",
                "--out", workspace / "x.json",
            )


class TestThresholdCurve:
    def test_two_column_monotone_csv(self, workspace):
        out = workspace / "curve.csv"
        code = run(
            "threshold-curve", "--timeseries", workspace / "ts.csv",
            "--hierarchy", workspace / "hierarchy.json", "--grid", 31, "--out", out,
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 31
        fractions = [float(r["retained_fraction"]) for r in rows]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))


@pytest.fixture(scope="module")
def trained(workspace):
    # --seed is the synth seed, so the cohort's plan is run_experiment's first holdout
    ckpt = workspace / "model.ckpt"
    code = run(
        "train", "--cohort", workspace / "cohort",
        "--hierarchy", workspace / "hierarchy.json",
        "--preset", "custom", "--toggles", "HGNN+HCNN",
        "--encoder", "res-cheb", "--k", 2, "--blocks", 2,
        "--seed", 3, "--out", ckpt,
    )
    assert code == 0
    return ckpt


class TestTrainEvalAblatePopgraph:
    def test_eval_writes_metrics_rows(self, workspace, trained):
        out = workspace / "metrics.csv"
        code = run(
            "eval", "--ckpt", trained, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", out,
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert set(rows[0]) == {"run_id", "seed", "fold", "acc", "sen", "spec", "auc", "avg"}

    def test_popgraph_reports_metrics(self, workspace, trained):
        out = workspace / "pop.csv"
        code = run(
            "popgraph", "--ckpt", trained, "--cohort", workspace / "cohort",
            "--phenotypes", workspace / "cohort" / "phenotypes.csv",
            "--retain-pct", 30, "--out", out,
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["run_id"] == "popgraph"
        assert 0.0 <= float(rows[0]["acc"]) <= 1.0

    def test_train_fits_only_the_plan_train_part(self, workspace, trained):
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        assert sorted(load_fit(trained).subject_ids) == sorted(plan.subjects_in("train"))

    def test_train_then_eval_matches_run_experiment(self, workspace, trained):
        out = workspace / "metrics_match.csv"
        assert run(
            "eval", "--ckpt", trained, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", out,
        ) == 0
        with out.open() as fh:
            (row,) = list(csv.DictReader(fh))
        model_cfg = ModelConfig(
            toggles=parse_toggles("HGNN+HCNN"), hgnn=HgnnConfig(k=2, blocks=2, encoder="res-cheb")
        )
        expected = run_experiment(
            read_cohort(workspace / "cohort"), nested_hierarchy(2, 2, 2), model_cfg,
            TrainConfig(seed=3), mode="holdout", repeats=1,
        ).rows[0].metrics
        assert Metrics(*(float(row[key]) for key in ("acc", "sen", "spec", "auc"))) == expected

    def test_eval_numbers_twelve_folds_in_numeric_order(self, workspace, trained, tmp_path):
        # 24 subjects no checkpoint has seen, in a 12-fold plan
        h = nested_hierarchy(2, 2, 2)
        fresh = synth_generate(24, h, signal=0.8, noise=0.3, seed=21, n_timepoints=60)
        cohort = Cohort([
            SubjectRecord(
                timeseries=RoiTimeSeries(f"new{i:02d}", r.timeseries.samples, r.timeseries.roi_names),
                label=r.label,
                phenotype=replace(r.phenotype, subject_id=f"new{i:02d}"),
            )
            for i, r in enumerate(fresh.subjects)
        ])
        write_cohort(tmp_path, cohort, hierarchy=h, split_plan=make_splits(cohort, kfold_plan(0, 12)))
        out = tmp_path / "folds.csv"
        assert run(
            "eval", "--ckpt", trained, "--cohort", tmp_path,
            "--split-plan", tmp_path / "split_plan.json", "--out", out,
        ) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["run_id"], r["fold"]) for r in rows] == [(f"eval:fold{i}", str(i)) for i in range(12)]

    def test_eval_refuses_to_score_training_subjects(self, workspace, trained, capsys):
        cohort = read_cohort(workspace / "cohort")
        plan_path = workspace / "kfold_plan.json"
        plan_path.write_text(json.dumps(make_splits(cohort, kfold_plan(0, 2)).to_json()))
        code = run(
            "eval", "--ckpt", trained, "--cohort", workspace / "cohort",
            "--split-plan", plan_path, "--out", workspace / "leak.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error:") and "were trained on" in err
        assert err.count("\n") == 1
        assert not (workspace / "leak.csv").exists()

    def test_popgraph_refuses_a_plan_whose_test_part_was_trained_on(self, workspace, trained, tmp_path, capsys):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        swap = {"train": "test", "test": "train", "val": "val"}
        swapped = replace(plan, assignments={sid: swap[p] for sid, p in plan.assignments.items()})
        (tmp_path / "cohort" / "split_plan.json").write_text(json.dumps(swapped.to_json()))
        code = run(
            "popgraph", "--ckpt", trained, "--cohort", tmp_path / "cohort",
            "--phenotypes", tmp_path / "cohort" / "phenotypes.csv", "--out", tmp_path / "pop.csv",
        )
        assert code == 2
        assert "were trained on" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "popgraph"])
    def test_scoring_refuses_checkpoint_without_training_record(
        self, workspace, trained, tmp_path, capsys, command
    ):
        params, meta = load_checkpoint(trained)
        del meta["subject_ids"]
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, params, meta)
        cohort = workspace / "cohort"
        extra = (
            ["--split-plan", cohort / "split_plan.json"] if command == "eval"
            else ["--phenotypes", cohort / "phenotypes.csv"]
        )
        code = run(command, "--ckpt", old, "--cohort", cohort, *extra, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "no 'subject_ids' record" in capsys.readouterr().err


class TestCliErrors:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", 0], "k, blocks, and hidden_dim must all be >= 1"),
            (["--toggles", "foo"], "unknown toggles 'foo'"),
        ],
    )
    def test_bad_train_flags_give_one_line_and_exit_2(self, workspace, capsys, flags, message):
        code = run(
            "train", "--cohort", workspace / "cohort", "--hierarchy", workspace / "hierarchy.json",
            *flags, "--out", workspace / "bad.ckpt",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and message in err
        assert err.count("\n") == 1

    def test_missing_checkpoint_gives_one_line_and_exit_2(self, workspace, capsys):
        code = run(
            "eval", "--ckpt", workspace / "nope.ckpt", "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", workspace / "n.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and "nope.ckpt" in err
        assert err.count("\n") == 1

    def test_eval_on_a_plan_naming_unknown_subjects_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys
    ):
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        stale = replace(plan, assignments={**plan.assignments, "s9999": "test"})
        (tmp_path / "stale.json").write_text(json.dumps(stale.to_json()))
        code = run(
            "eval", "--ckpt", trained, "--cohort", workspace / "cohort",
            "--split-plan", tmp_path / "stale.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and "not in the cohort (first 's9999')" in err
        assert err.count("\n") == 1

    def test_nan_weight_in_checkpoint_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys
    ):
        header, payload = trained.read_bytes().split(b"\n", 1)
        nan_ckpt = tmp_path / "nan.ckpt"
        nan = np.array([np.nan], dtype="<f8").tobytes()
        nan_ckpt.write_bytes(header + b"\n" + nan + payload[len(nan):])
        code = run(
            "eval", "--ckpt", nan_ckpt, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        first = json.loads(header)["params"][0]["name"]
        assert err.startswith("hobnet: error: ") and "NaN or Inf" in err
        assert "nan.ckpt" in err and repr(first) in err
        assert err.count("\n") == 1

    def test_checkpoint_with_an_unknown_config_key_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys
    ):
        params, meta = load_checkpoint(trained)
        meta["model_config"]["hgnn"]["depth"] = 2
        ckpt = tmp_path / "future.ckpt"
        save_checkpoint(ckpt, params, meta)
        code = run(
            "eval", "--ckpt", ckpt, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and "future.ckpt" in err
        assert "model_config.hgnn has unknown key 'depth'" in err
        assert err.count("\n") == 1

    def test_popgraph_on_a_plan_naming_unknown_subjects_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        stale = replace(plan, assignments={**plan.assignments, "s9999": "test"})
        (tmp_path / "cohort" / "split_plan.json").write_text(json.dumps(stale.to_json()))
        code = run(
            "popgraph", "--ckpt", trained, "--cohort", tmp_path / "cohort",
            "--phenotypes", tmp_path / "cohort" / "phenotypes.csv", "--out", tmp_path / "pop.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ")
        assert "1 split-plan subjects are not in the cohort (first 's9999')" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "pop.csv").exists()

    def test_train_on_a_plan_naming_unknown_subjects_gives_one_line_and_exit_2(
        self, workspace, tmp_path, capsys
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        stale = replace(plan, assignments={**plan.assignments, "s9999": "train"})
        (tmp_path / "cohort" / "split_plan.json").write_text(json.dumps(stale.to_json()))
        code = run(
            "train", "--cohort", tmp_path / "cohort", "--hierarchy", workspace / "hierarchy.json",
            "--out", tmp_path / "model.ckpt",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ")
        assert "split_plan.json: 1 split-plan subjects are not in the cohort (first 's9999')" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "model.ckpt").exists()

    def test_popgraph_with_a_phenotype_file_lacking_a_subject_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys
    ):
        header, first, *rest = (workspace / "cohort" / "phenotypes.csv").read_text().splitlines()
        phenotypes = tmp_path / "partial.csv"
        phenotypes.write_text("\n".join([header, *rest]) + "\n")
        code = run(
            "popgraph", "--ckpt", trained, "--cohort", workspace / "cohort",
            "--phenotypes", phenotypes, "--out", tmp_path / "pop.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ")
        assert f"partial.csv: no row for cohort subject {first.split(',')[0]!r}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage", ["truncated", "missing key"])
    @pytest.mark.parametrize("reader", ["split plan", "hierarchy"])
    def test_malformed_json_input_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys, reader, damage
    ):
        if reader == "split plan":
            source, key = workspace / "cohort" / "split_plan.json", "mode"
        else:
            source, key = workspace / "hierarchy.json", "wan"
        bad = tmp_path / "bad.json"
        if damage == "truncated":
            text = source.read_text()
            bad.write_text(text[: len(text) // 2])
            expected = "bad.json: not valid JSON"
        else:
            payload = json.loads(source.read_text())
            del payload[key]
            bad.write_text(json.dumps(payload))
            expected = f"bad.json: {reader} file is missing key {key!r}"
        if reader == "split plan":
            argv = ("eval", "--ckpt", trained, "--cohort", workspace / "cohort", "--split-plan", bad)
        else:
            argv = ("graphgen", "--timeseries", workspace / "ts.csv", "--hierarchy", bad, "--gamma", 0.4)
        code = run(*argv, "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and expected in err
        assert err.count("\n") == 1


class TestAblateSmoke:
    def test_tiny_ablation_runs(self, tmp_path):
        hierarchy = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(10, hierarchy, signal=0.8, noise=0.3, seed=6, n_timepoints=50)
        from hobnet.harness import write_cohort

        write_cohort(tmp_path / "c", cohort, hierarchy=hierarchy)
        out = tmp_path / "ablation.csv"
        code = run("ablate", "--cohort", tmp_path / "c", "--seeds", 1, "--out", out)
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # one per branch configuration
