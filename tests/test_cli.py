"""End-to-end command line flows on a tiny synthetic cohort."""

import csv
import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest

from hobnet.cli import main
from hobnet.connectivity import (
    GAMMA_GRID,
    LEVELS,
    RoiTimeSeries,
    build_graph_set,
    read_hierarchy_json,
    read_timeseries_csv,
    write_hierarchy_json,
    write_timeseries_csv,
)
from hobnet.ffc import (
    CohortConnectivity,
    FitResult,
    ModelConfig,
    TrainConfig,
    build_model_params,
    checkpoint_meta,
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
from oracles import as_old_checkpoint, retained_edge_curve


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


def subject_levels(workspace) -> dict[str, np.ndarray]:
    """Each level's connectivity of the workspace subject, as preparation builds it."""
    ts = read_timeseries_csv(workspace / "ts.csv")
    connectivity = CohortConnectivity.build([ts], read_hierarchy_json(workspace / "hierarchy.json"))
    return {lv: stack[0] for lv, stack in connectivity.levels.items()}


class TestSynthAndGraphgen:
    def test_synth_wrote_cohort_directory(self, workspace):
        out = workspace / "cohort"
        assert (out / "labels.csv").exists()
        assert (out / "phenotypes.csv").exists()
        assert (out / "split_plan.json").exists()
        assert len(list((out / "timeseries").glob("*.csv"))) == 12

    @pytest.mark.parametrize("mode", ["binary", "weighted"])
    def test_graphgen_exports_the_graphs_preparation_builds(self, workspace, tmp_path, mode):
        out = tmp_path / "graphs.json"
        code = run(
            "graphgen", "--timeseries", workspace / "ts.csv",
            "--hierarchy", workspace / "hierarchy.json",
            "--gamma", 0.3, "--mode", mode, "--out", out,
        )
        assert code == 0
        levels = subject_levels(workspace)
        adjacency = build_graph_set(levels, 0.3, mode)
        records = json.loads(out.read_text())
        assert [r["level"] for r in records] == list(LEVELS)
        for r in records:
            lv = r["level"]
            assert (r["gamma"], r["mode"]) == (0.3, mode)
            assert r["shape"] == r["features_shape"] == list(levels[lv].shape)
            assert np.array(r["features"]).reshape(r["features_shape"]).tobytes() == levels[lv].tobytes()
            assert np.array(r["adjacency"]).reshape(r["shape"]).tobytes() == adjacency[lv].tobytes()

    @pytest.mark.parametrize("pct", [0, 7.5, 25, 30, 100])
    def test_graphgen_retained_pct_takes_the_smallest_grid_gamma_keeping_at_most_that_share(
        self, workspace, tmp_path, pct
    ):
        out = tmp_path / "graphs.json"
        code = run(
            "graphgen", "--timeseries", workspace / "ts.csv",
            "--hierarchy", workspace / "hierarchy.json", "--retained-pct", pct, "--out", out,
        )
        assert code == 0
        levels = subject_levels(workspace)
        for r in json.loads(out.read_text()):
            curve = retained_edge_curve(levels[r["level"]], GAMMA_GRID)
            expected = min(g for g, kept in curve if kept <= pct / 100)
            assert r["gamma"] == expected

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

    def test_the_curve_is_that_of_the_region_level_connectivity(self, workspace, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(
            "threshold-curve", "--timeseries", workspace / "ts.csv",
            "--hierarchy", workspace / "hierarchy.json", "--grid", 11, "--out", out,
        )
        assert code == 0
        with out.open() as fh:
            rows = [(float(r["gamma"]), float(r["retained_fraction"])) for r in csv.DictReader(fh)]
        assert rows == retained_edge_curve(subject_levels(workspace)["lan"], np.linspace(0.0, 1.0, 11))

    def test_a_one_roi_hierarchy_retains_nothing(self, workspace, tmp_path):
        hierarchy = nested_hierarchy(1, 1, 1)
        write_hierarchy_json(tmp_path / "h.json", hierarchy)
        write_timeseries_csv(tmp_path / "ts.csv", random_timeseries(2, seed=4, names=[*hierarchy.rois, "extra"]))
        out = tmp_path / "curve.csv"
        code = run(
            "threshold-curve", "--timeseries", tmp_path / "ts.csv",
            "--hierarchy", tmp_path / "h.json", "--grid", 5, "--out", out,
        )
        assert code == 0
        with out.open() as fh:
            assert [r["retained_fraction"] for r in csv.DictReader(fh)] == ["0.0"] * 5


@pytest.fixture(scope="module")
def trained(workspace):
    # --seed is the synth seed, so the cohort's plan is run_experiment's first holdout
    ckpt = workspace / "model.ckpt"
    code = run(
        "train", "--cohort", workspace / "cohort",
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
        fitted = load_fit(trained)
        params, meta = fitted.params, checkpoint_meta(fitted)
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


@pytest.fixture(scope="module")
def blind_cohort(workspace):
    """A 20-subject synth cohort and the checkpoint ``train`` writes on it."""
    cohort = workspace / "blind"
    assert run("synth", "--subjects", 20, "--seed", 5, "--hierarchy", workspace / "hierarchy.json",
               "--out", cohort) == 0
    assert run("train", "--cohort", cohort, "--seed", 3, "--out", workspace / "blind.ckpt") == 0
    return cohort, (workspace / "blind.ckpt").read_bytes()


class TestTrainIsBlindToHeldOutSubjects:
    """``hobnet train`` on a holdout plan reads nothing of the test and val
    parts: changing their labels or series leaves the checkpoint, with its
    gammas and training record, byte-identical."""

    def retrain(self, blind_cohort, tmp_path, change) -> bytes:
        source, _ = blind_cohort
        copy = tmp_path / "cohort"
        shutil.copytree(source, copy)
        change(copy, read_split_plan(copy / "split_plan.json"))
        assert run("train", "--cohort", copy, "--seed", 3, "--out", tmp_path / "model.ckpt") == 0
        return (tmp_path / "model.ckpt").read_bytes()

    def test_flipping_every_held_out_label_changes_no_checkpoint_byte(self, blind_cohort, tmp_path):
        def flip(cohort, plan):
            held_out = set(plan.subjects_in("test") + plan.subjects_in("val"))
            with (cohort / "labels.csv").open() as fh:
                header, *rows = list(csv.reader(fh))
            assert len(held_out) == 6 and {sid for sid, _ in rows} > held_out
            flipped = [[sid, str(1 - int(label)) if sid in held_out else label] for sid, label in rows]
            with (cohort / "labels.csv").open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *flipped])

        assert self.retrain(blind_cohort, tmp_path, flip) == blind_cohort[1]

    def test_perturbing_a_test_subject_s_series_changes_no_checkpoint_byte(self, blind_cohort, tmp_path):
        def perturb(cohort, plan):
            # every ROI follows one shared factor, which would move a gamma chosen with this subject
            path = cohort / "timeseries" / f"{plan.subjects_in('test')[0]}.csv"
            ts = read_timeseries_csv(path)
            rng = np.random.default_rng(0)
            shared = rng.normal(size=(len(ts.samples), 1)) + 0.01 * rng.normal(size=ts.samples.shape)
            write_timeseries_csv(path, replace(ts, samples=shared))

        assert self.retrain(blind_cohort, tmp_path, perturb) == blind_cohort[1]


class TestCliErrors:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", 0], "k, blocks, and hidden_dim must all be >= 1"),
            (["--toggles", "foo"], "unknown toggles 'foo'"),
        ],
    )
    def test_bad_train_flags_give_one_line_and_exit_2(self, workspace, capsys, flags, message):
        code = run("train", "--cohort", workspace / "cohort", *flags, "--out", workspace / "bad.ckpt")
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

    @staticmethod
    def damaged_payload_error(workspace, trained, tmp_path, capsys, damage) -> tuple[str, list[dict]]:
        """The error line of ``eval`` on ``trained`` with its payload passed
        through ``damage(payload, params)``, and the header's parameters."""
        header, payload = trained.read_bytes().split(b"\n", 1)
        params = json.loads(header)["params"]
        bad_ckpt = tmp_path / "bad.ckpt"
        bad_ckpt.write_bytes(header + b"\n" + damage(payload, params))
        code = run(
            "eval", "--ckpt", bad_ckpt, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and "bad.ckpt" in err
        assert err.count("\n") == 1
        return err, params

    @staticmethod
    def payload_offset(params, index: int) -> int:
        """The byte offset of parameter ``index``'s first value in the payload."""
        return 8 * sum(math.prod(p["shape"]) for p in params[:index])

    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    def test_nan_weight_in_checkpoint_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys, which
    ):
        nan = np.array([np.nan], dtype="<f8").tobytes()

        def damage(payload, params):
            # the first parameter's first value, the middle one's first, the last one's last
            at = {"first": 0, "middle": self.payload_offset(params, len(params) // 2),
                  "last": len(payload) - 8}[which]
            return payload[:at] + nan + payload[at + 8 :]

        err, params = self.damaged_payload_error(workspace, trained, tmp_path, capsys, damage)
        name = params[{"first": 0, "middle": len(params) // 2, "last": -1}[which]]["name"]
        assert f"parameter {name!r} holds NaN or Inf values" in err

    def test_payload_truncated_in_a_later_parameter_names_it(self, workspace, trained, tmp_path, capsys):
        def damage(payload, params):
            return payload[: self.payload_offset(params, len(params) // 2) + 8]

        err, params = self.damaged_payload_error(workspace, trained, tmp_path, capsys, damage)
        assert f"truncated payload for parameter {params[len(params) // 2]['name']!r}" in err

    @pytest.mark.parametrize(
        "damage",
        [
            "header not an object",
            "no meta",
            "meta not an object",
            "no params",
            "params not a list",
            "param name not a string",
            "negative shape",
            "shape not a list",
            "entry not an object",
            "duplicate name",
        ],
    )
    def test_malformed_checkpoint_header_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys, damage
    ):
        line, payload = trained.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        first, rest = header["params"][0], header["params"][1:]
        meta_message = "meta must be a JSON object"
        params_message = "params must be a JSON array"
        header, message = {
            "header not an object": ([], "checkpoint header must be a JSON object"),
            "no meta": ({k: v for k, v in header.items() if k != "meta"}, meta_message),
            "meta not an object": ({**header, "meta": []}, meta_message),
            "no params": ({k: v for k, v in header.items() if k != "params"}, params_message),
            "params not a list": ({**header, "params": {}}, params_message),
            "param name not a string": (
                {**header, "params": [{**first, "name": 3}, *rest]}, "params[0]['name'] must be a JSON string"
            ),
            "negative shape": (
                {**header, "params": [{**first, "shape": [-1]}, *rest]},
                "params[0]['shape'] must hold sizes >= 0, got [-1]",
            ),
            "shape not a list": (
                {**header, "params": [{**first, "shape": 4}, *rest]}, "params[0]['shape'] must be a JSON array"
            ),
            "entry not an object": (
                {**header, "params": [[first["name"]], *rest]}, "params[0] must be a JSON object"
            ),
            "duplicate name": (
                {**header, "params": [first, {**rest[0], "name": first["name"]}, *rest[1:]]},
                f"duplicate parameter name {first['name']!r}",
            ),
        }[damage]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = run(
            "eval", "--ckpt", bad, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hobnet: error: {bad}: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize(
        "record, value, message",
        [
            (("model_config", "hgnn"), [2], "model_config.hgnn must be a JSON object"),
            (("train_config",), [], "train_config must be a JSON object"),
            (("model_config",), 3, "model_config must be a JSON object"),
            (("model_config", "toggles"), 5, "model_config.toggles must be a JSON string"),
            (("model_config", "hgnn", "k"), "2", "model_config.hgnn.k must be a JSON integer"),
            (("gammas",), [0.5], "gammas must be a JSON object"),
            (("level_widths",), [2, 4, 8], "level_widths must be a JSON object"),
            (("subject_ids",), 7, "subject_ids must be a JSON array"),
            (("model_config", "hgnn", "k"), 0, "k, blocks, and hidden_dim must all be >= 1"),
            (("train_config", "dropout"), 1.0, "dropout must be in [0, 1), got 1.0"),
            (("gammas", "wan"), "x", "gammas['wan'] must be a JSON number"),
            (("gammas",), {}, "gammas must have exactly the keys ['wan', 'man', 'lan'], got []"),
            (
                ("gammas", "extra"), 0.5,
                "gammas must have exactly the keys ['wan', 'man', 'lan'], got ['extra', 'lan', 'man', 'wan']",
            ),
            (("gammas", "wan"), 2.0, "gammas['wan'] must be in [0, 1], got 2.0"),
            (("level_widths",), {}, "level_widths must have exactly the keys ['wan', 'man', 'lan'], got []"),
            (("level_widths", "wan"), "2", "level_widths['wan'] must be a JSON integer"),
            (("level_widths", "wan"), -1, "level_widths['wan'] must be >= 1, got -1"),
            (("model_config", "head_hidden"), ["8"], "model_config.head_hidden[0] must be a JSON integer"),
            (("model_config", "head_hidden"), [-2], "head widths must all be >= 1, got [-2]"),
            (("model_config", "hcnn", "channels"), [8, 1.5], "model_config.hcnn.channels[1] must be a JSON integer"),
            (("model_config", "hcnn", "out_dim"), -1, "channels, MLP widths and out_dim must all be >= 1"),
            (("loss_trace",), ["a"], "loss_trace[0] must be a JSON number"),
            (("subject_ids",), [1, 2], "subject_ids[0] must be a JSON string"),
            (("fc_len",), -3, "kernel size 7 exceeds input length -3"),
            (("train_config", "learning_rate"), float("nan"), "learning rate must be positive and finite, got nan"),
        ],
    )
    def test_malformed_checkpoint_meta_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys, record, value, message
    ):
        fitted = load_fit(trained)
        params, meta = fitted.params, checkpoint_meta(fitted)
        target = meta
        for key in record[:-1]:
            target = target[key]
        target[record[-1]] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, meta)
        code = run(
            "eval", "--ckpt", bad, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        assert capsys.readouterr().err == f"hobnet: error: {bad}: {message}\n"
        assert not (tmp_path / "m.csv").exists()

    def test_a_layer_larger_than_the_file_is_refused_before_it_is_allocated(
        self, workspace, trained, tmp_path, capsys
    ):
        line, payload = trained.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["meta"]["level_widths"]["lan"] = 10**15
        for entry in header["params"]:
            if entry["name"] == "hgnn.lan.proj.w":
                entry["shape"][0] = 10**15
        huge = tmp_path / "huge.ckpt"
        huge.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        code = run(
            "eval", "--ckpt", huge, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        message = "truncated payload for parameter 'hgnn.lan.proj.w'"
        assert capsys.readouterr().err == f"hobnet: error: {huge}: {message}\n"
        assert not (tmp_path / "m.csv").exists()

    def eval_of_an_old_checkpoint(self, workspace, trained, tmp_path, capsys, version):
        old = tmp_path / f"v{version}.ckpt"
        as_old_checkpoint(trained, old, version)
        code = run(
            "eval", "--ckpt", old, "--cohort", workspace / "cohort",
            "--split-plan", workspace / "cohort" / "split_plan.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hobnet: error: {old}: ") and err.endswith("; retrain it\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "m.csv").exists()

    def test_eval_of_a_v1_checkpoint_gives_one_line_and_exit_2(self, workspace, trained, tmp_path, capsys):
        self.eval_of_an_old_checkpoint(workspace, trained, tmp_path, capsys, 1)

    def test_eval_of_a_v2_checkpoint_gives_one_line_and_exit_2(self, workspace, trained, tmp_path, capsys):
        self.eval_of_an_old_checkpoint(workspace, trained, tmp_path, capsys, 2)

    def test_checkpoint_with_an_unknown_config_key_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys
    ):
        fitted = load_fit(trained)
        params, meta = fitted.params, checkpoint_meta(fitted)
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

    def test_train_reads_the_hierarchy_of_the_cohort_directory(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        (tmp_path / "cohort" / "hierarchy.json").unlink()
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"hobnet: error: {tmp_path / 'cohort'}: no hierarchy.json in cohort directory\n"
        with pytest.raises(SystemExit) as exc:
            run("train", "--cohort", workspace / "cohort", "--hierarchy", workspace / "hierarchy.json",
                "--out", tmp_path / "model.ckpt")
        assert exc.value.code == 2 and "unrecognized arguments: --hierarchy" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_train_on_a_plan_naming_unknown_subjects_gives_one_line_and_exit_2(
        self, workspace, tmp_path, capsys
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        stale = replace(plan, assignments={**plan.assignments, "s9999": "train"})
        (tmp_path / "cohort" / "split_plan.json").write_text(json.dumps(stale.to_json()))
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ")
        assert "split_plan.json: 1 split-plan subjects are not in the cohort (first 's9999')" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "model.ckpt").exists()

    def test_train_on_a_plan_with_an_empty_train_part_gives_one_line_and_exit_2(
        self, workspace, tmp_path, capsys
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        no_train = {sid: "val" if p == "train" else p for sid, p in plan.assignments.items()}
        (tmp_path / "cohort" / "split_plan.json").write_text(
            json.dumps(replace(plan, assignments=no_train).to_json())
        )
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ")
        assert "split_plan.json: split plan part 'train' is empty" in err
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

    def test_eval_on_a_plan_with_an_empty_test_part_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys
    ):
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        no_test = {sid: "val" if p == "test" else p for sid, p in plan.assignments.items()}
        (tmp_path / "no_test.json").write_text(json.dumps(replace(plan, assignments=no_test).to_json()))
        code = run(
            "eval", "--ckpt", trained, "--cohort", workspace / "cohort",
            "--split-plan", tmp_path / "no_test.json", "--out", tmp_path / "m.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ")
        assert "no_test.json: split plan part 'test' is empty" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "m.csv").exists()

    def test_popgraph_on_a_plan_with_an_empty_test_part_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        plan = read_split_plan(workspace / "cohort" / "split_plan.json")
        no_test = {sid: "val" if p == "test" else p for sid, p in plan.assignments.items()}
        (tmp_path / "cohort" / "split_plan.json").write_text(
            json.dumps(replace(plan, assignments=no_test).to_json())
        )
        code = run(
            "popgraph", "--ckpt", trained, "--cohort", tmp_path / "cohort",
            "--phenotypes", tmp_path / "cohort" / "phenotypes.csv", "--out", tmp_path / "pop.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ")
        assert "split_plan.json: split plan part 'test' is empty" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "pop.csv").exists()

    @pytest.mark.parametrize(
        ("reader", "damage"),
        [
            ("split plan", "truncated"),
            ("split plan", "not UTF-8"),
            ("split plan", "missing key"),
            ("split plan", "not an object"),
            ("split plan", "unknown mode"),
            ("split plan", "assignments not an object"),
            ("split plan", "k-fold part not a fold"),
            ("split plan", "fractions not a list"),
            ("split plan", "fraction not a number"),
            ("split plan", "part not a string"),
            ("hierarchy", "truncated"),
            ("hierarchy", "not UTF-8"),
            ("hierarchy", "missing key"),
            ("hierarchy", "not an object"),
            ("hierarchy", "lan not a list"),
            ("hierarchy", "man not an object"),
            ("hierarchy", "ROI not a string"),
            ("hierarchy", "group not a string"),
            ("hierarchy", "network not a string"),
            ("hierarchy", "no ROIs"),
        ],
    )
    def test_malformed_json_input_gives_one_line_and_exit_2(
        self, workspace, trained, tmp_path, capsys, reader, damage
    ):
        if reader == "split plan":
            source, key = workspace / "cohort" / "split_plan.json", "mode"
        else:
            source, key = workspace / "hierarchy.json", "wan"
        text = source.read_text()
        payload = json.loads(text)
        content, message = {
            "truncated": (text[: len(text) // 2], "not valid JSON"),
            "not UTF-8": (b"\xff{}", "not valid JSON ('utf-8' codec can't decode byte 0xff"),
            "missing key": (
                json.dumps({k: v for k, v in payload.items() if k != key}),
                f"{reader} file is missing key {key!r}",
            ),
            "not an object": ("[]", f"{reader} file must be a JSON object"),
            "unknown mode": (
                json.dumps({**payload, "mode": "bogus"}),
                "split mode must be 'holdout' or 'kfold', got 'bogus'",
            ),
            "assignments not an object": (
                json.dumps({**payload, "assignments": []}),
                "assignments must be a JSON object",
            ),
            "k-fold part not a fold": (
                json.dumps({**payload, "mode": "kfold"}),
                "k-fold parts must be fold0, fold1, ..., got ['test', 'train', 'val']",
            ),
            "fractions not a list": (
                json.dumps({**payload, "fractions": 5}),
                "fractions must be a JSON array",
            ),
            "fraction not a number": (
                json.dumps({**payload, "fractions": [0.7, "0.1", 0.2]}),
                "fractions[1] must be a JSON number",
            ),
            "part not a string": (
                json.dumps({**payload, "assignments": {"s0000": "train", "s0001": ["train"]}}),
                "assignments['s0001'] must be a JSON string",
            ),
            "lan not a list": (json.dumps({**payload, "lan": 5}), "lan must be a JSON array"),
            "ROI not a string": (
                json.dumps({**payload, "lan": [["a"], "b"]}),
                "lan[0] must be a JSON string",
            ),
            "group not a string": (
                json.dumps({**payload, "man": {"a": ["x"], "b": "y"}}),
                "man['a'] must be a JSON string",
            ),
            "network not a string": (
                json.dumps({**payload, "wan": {"x": 7}}),
                "wan['x'] must be a JSON string",
            ),
            "man not an object": (
                json.dumps({**payload, "man": "ab"}),
                "man must be a JSON object",
            ),
            "no ROIs": (json.dumps({"lan": [], "man": {}, "wan": {}}), "hierarchy has no ROIs"),
        }[damage]
        bad = tmp_path / "bad.json"
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
        if reader == "split plan":
            argv = ("eval", "--ckpt", trained, "--cohort", workspace / "cohort", "--split-plan", bad)
        else:
            argv = ("graphgen", "--timeseries", workspace / "ts.csv", "--hierarchy", bad, "--gamma", 0.4)
        code = run(*argv, "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and f"bad.json: {message}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("edit", ["extra column", "reversed header"])
    def test_train_on_a_subject_with_another_header_gives_one_line_and_exit_2(
        self, workspace, tmp_path, capsys, edit
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        path = tmp_path / "cohort" / "timeseries" / "s0003.csv"
        ts = read_timeseries_csv(path)
        if edit == "extra column":
            extra = np.random.default_rng(0).normal(size=(len(ts.samples), 1))
            edited = RoiTimeSeries("s0003", np.hstack([ts.samples, extra]), [*ts.roi_names, "extra"])
            message = f"header column {len(ts.roi_names) + 1} is 'extra', where s0000.csv has no column"
        else:
            edited = RoiTimeSeries("s0003", ts.samples[:, ::-1], ts.roi_names[::-1])
            message = f"header column 1 is {ts.roi_names[-1]!r}, where s0000.csv has {ts.roi_names[0]!r}"
        write_timeseries_csv(path, edited)
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and f"s0003.csv: subject 's0003': {message}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("name", ["labels.csv", "timeseries/s0003.csv"])
    def test_train_on_a_csv_that_is_not_utf8_gives_one_line_and_exit_2(
        self, workspace, tmp_path, capsys, name
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        path = tmp_path / "cohort" / name
        path.write_bytes(b"\xff\xfe")
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hobnet: error: {path}: not valid CSV ('utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert not (tmp_path / "model.ckpt").exists()

    def test_train_reads_files_that_start_with_a_byte_order_mark(self, workspace, trained, tmp_path):
        # spreadsheets save "CSV UTF-8" with a leading byte-order mark
        cohort = tmp_path / "cohort"
        shutil.copytree(workspace / "cohort", cohort)
        paths = [cohort / name for name in ("labels.csv", "phenotypes.csv", "hierarchy.json", "split_plan.json")]
        for path in [*paths, *(cohort / "timeseries").glob("*.csv")]:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        ckpt = tmp_path / "model.ckpt"
        code = run(
            "train", "--cohort", cohort,
            "--preset", "custom", "--toggles", "HGNN+HCNN",
            "--encoder", "res-cheb", "--k", 2, "--blocks", 2,
            "--seed", 3, "--out", ckpt,
        )
        assert code == 0
        assert ckpt.read_bytes() == trained.read_bytes()

    @pytest.mark.parametrize("command", ["train", "eval", "popgraph", "graphgen"])
    def test_a_hierarchy_roi_missing_from_the_time_series_names_both_files_and_exits_2(
        self, workspace, trained, tmp_path, capsys, command
    ):
        cohort = tmp_path / "cohort"
        shutil.copytree(workspace / "cohort", cohort)
        hierarchy = cohort / "hierarchy.json"
        write_hierarchy_json(hierarchy, nested_hierarchy(2, 2, 3))
        first = cohort / "timeseries" / "s0000.csv"
        out = tmp_path / "out"
        argv = {
            "train": ("train", "--cohort", cohort),
            "eval": ("eval", "--ckpt", trained, "--cohort", cohort, "--split-plan", cohort / "split_plan.json"),
            "popgraph": ("popgraph", "--ckpt", trained, "--cohort", cohort, "--phenotypes", cohort / "phenotypes.csv"),
            "graphgen": ("graphgen", "--timeseries", first, "--hierarchy", hierarchy, "--gamma", 0.4),
        }[command]
        assert run(*argv, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"hobnet: error: {first}: subject 's0000': time series is missing hierarchy ROI "
            f"'net0.grp0.roi2' of {hierarchy}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_train_on_a_non_finite_sample_gives_one_line_naming_file_row_and_roi_and_exit_2(
        self, workspace, tmp_path, capsys, value
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        path = tmp_path / "cohort" / "timeseries" / "s0003.csv"
        header, first, second, *rest = path.read_text().splitlines()
        cells = second.split(",")
        cells[1] = value
        path.write_text("\n".join([header, first, ",".join(cells), *rest]) + "\n")
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 2
        roi = header.split(",")[1]
        message = f"{path}: row 3: subject 's0003': non-finite value {value!r} for ROI {roi!r}"
        assert capsys.readouterr().err == f"hobnet: error: {message}\n"
        assert not (tmp_path / "model.ckpt").exists()

    def test_train_on_a_subject_id_that_is_a_path_gives_one_line_and_exit_2(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        labels = tmp_path / "cohort" / "labels.csv"
        header, first, *rest = labels.read_text().splitlines()
        labels.write_text("\n".join([header, "../outside," + first.split(",")[1], *rest]) + "\n")
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"hobnet: error: {labels}: row 2: subject id '../outside' is not a plain file name\n"
        assert not (tmp_path / "model.ckpt").exists()

    def test_train_on_a_cohort_missing_a_hierarchy_roi_names_the_subject(
        self, workspace, tmp_path, capsys
    ):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        for path in sorted((tmp_path / "cohort" / "timeseries").glob("*.csv")):
            ts = read_timeseries_csv(path)
            write_timeseries_csv(path, RoiTimeSeries(ts.subject_id, ts.samples[:, :-1], ts.roi_names[:-1]))
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ")
        assert f"subject 's0000': time series is missing hierarchy ROI {ts.roi_names[-1]!r}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "popgraph"])
    def test_scoring_a_cohort_of_another_atlas_names_the_checkpoint_and_exits_2(
        self, workspace, tmp_path, capsys, command
    ):
        # an untrained 16-ROI checkpoint; the workspace cohort has 8 ROIs
        cfg = ModelConfig(hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4))
        widths, fc_len = {"wan": 4, "man": 8, "lan": 16}, 16 * 15 // 2
        ckpt = tmp_path / "atlas16.ckpt"
        result = FitResult(
            params=build_model_params(cfg, widths, fc_len, seed=0),
            config=cfg,
            train_config=TrainConfig(seed=0),
            gammas={"wan": 0.3, "man": 0.3, "lan": 0.3},
            loss_trace=[],
            level_widths=widths,
            fc_len=fc_len,
            subject_ids=[],
        )
        save_checkpoint(ckpt, result.params, checkpoint_meta(result))
        cohort = workspace / "cohort"
        extra = (
            ["--split-plan", cohort / "split_plan.json"] if command == "eval"
            else ["--phenotypes", cohort / "phenotypes.csv"]
        )
        code = run(command, "--ckpt", ckpt, "--cohort", cohort, *extra, "--out", tmp_path / "x.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hobnet: error: {ckpt}: trained on wan width 4, but the cohort gives 2;")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "popgraph"])
    def test_another_atlas_is_named_before_subjects_it_trained_on(
        self, workspace, tmp_path, capsys, command
    ):
        # an 8-ROI checkpoint "trained on" every subject of a 16-ROI synth
        # cohort: both cohorts name their subjects s0000, s0001, ...
        write_hierarchy_json(tmp_path / "h16.json", nested_hierarchy(4, 2, 2))
        cohort = tmp_path / "cohort16"
        assert run(
            "synth", "--subjects", 12, "--seed", 5, "--hierarchy", tmp_path / "h16.json", "--out", cohort
        ) == 0
        cfg = ModelConfig(hgnn=HgnnConfig(k=2, blocks=2, hidden_dim=4))
        widths = {"wan": 2, "man": 4, "lan": 8}
        result = FitResult(
            params=build_model_params(cfg, widths, 28, seed=0),
            config=cfg,
            train_config=TrainConfig(seed=0),
            gammas={"wan": 0.3, "man": 0.3, "lan": 0.3},
            loss_trace=[],
            level_widths=widths,
            fc_len=28,
            subject_ids=read_cohort(cohort).ids(),
        )
        ckpt = tmp_path / "atlas8.ckpt"
        save_checkpoint(ckpt, result.params, checkpoint_meta(result))
        extra = (
            ["--split-plan", cohort / "split_plan.json"] if command == "eval"
            else ["--phenotypes", cohort / "phenotypes.csv"]
        )
        code = run(command, "--ckpt", ckpt, "--cohort", cohort, *extra, "--out", tmp_path / "x.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hobnet: error: {ckpt}: trained on wan width 2, but the cohort gives 4;")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("pct", ["150", "-5", "nan"])
    def test_graphgen_with_a_retained_pct_outside_0_100_gives_one_line_and_exit_2(
        self, workspace, tmp_path, capsys, pct
    ):
        code = run(
            "graphgen", "--timeseries", workspace / "ts.csv", "--hierarchy", workspace / "hierarchy.json",
            "--retained-pct", pct, "--out", tmp_path / "g.json",
        )
        assert code == 2
        assert capsys.readouterr().err == f"hobnet: error: --retained-pct must be in [0, 100], got {float(pct)}\n"
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("value", ["150", "-5", "nan"])
    @pytest.mark.parametrize(
        "argv, flag, high",
        [
            (["graphgen", "--timeseries", "none.csv", "--hierarchy", "none.json"], "--gamma", 1),
            (["popgraph", "--ckpt", "none.ckpt", "--cohort", "none", "--phenotypes", "none.csv"], "--retain-pct", 100),
        ],
    )
    def test_a_threshold_flag_out_of_range_is_refused_before_any_file_is_read(
        self, tmp_path, capsys, argv, flag, high, value
    ):
        code = run(*argv, flag, value, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == f"hobnet: error: {flag} must be in [0, {high}], got {float(value)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--cohort", "c", "--k", "abc", "--out", "m.ckpt"], "argument --k: invalid int value: 'abc'"),
            (["synth", "--subjects", "4", "--hierarchy", "h.json"], "the following arguments are required: --out"),
            (
                ["graphgen", "--timeseries", "t.csv", "--hierarchy", "h.json", "--out", "g.json"],
                "one of the arguments --gamma --retained-pct is required",
            ),
            (["ablate", "--cohort", "c", "--out", "a.csv", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_parser_misuse_gives_one_line_and_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"hobnet: error: {message}\n"

    @pytest.mark.parametrize("argv, usage", [(["--help"], "usage: hobnet "), (["train", "--help"], "usage: hobnet train ")])
    def test_help_prints_usage_and_exits_0(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.out.startswith(usage) and not out.err

    @pytest.mark.parametrize("flag, value", [("--signal", "nan"), ("--signal", "inf"), ("--noise", "inf")])
    def test_synth_with_a_non_finite_flag_gives_one_line_naming_it_and_exit_2(
        self, workspace, tmp_path, capsys, flag, value
    ):
        code = run(
            "synth", "--subjects", 4, "--hierarchy", workspace / "hierarchy.json",
            flag, value, "--out", tmp_path / "cohort",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hobnet: error: ") and f"got {value}\n" in err
        assert "non-finite sample values" not in err
        assert err.count("\n") == 1
        assert not (tmp_path / "cohort").exists()

    @pytest.mark.parametrize("grid", [-1, 0])
    def test_threshold_curve_with_a_grid_below_1_gives_one_line_and_exit_2(
        self, workspace, tmp_path, capsys, grid
    ):
        code = run(
            "threshold-curve", "--timeseries", workspace / "ts.csv",
            "--hierarchy", workspace / "hierarchy.json", "--grid", grid, "--out", tmp_path / "c.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"hobnet: error: --grid must be at least 1, got {grid}\n"
        assert not (tmp_path / "c.csv").exists()

    def test_ablate_with_no_seeds_gives_one_line_and_exit_2(self, workspace, tmp_path, capsys):
        code = run("ablate", "--cohort", workspace / "cohort", "--seeds", 0, "--out", tmp_path / "a.csv")
        assert code == 2
        assert capsys.readouterr().err == "hobnet: error: seeds must be >= 1, got 0\n"
        assert not (tmp_path / "a.csv").exists()


class TestUnequalTimepoints:
    def test_train_runs_when_one_subject_has_90_timepoints(self, workspace, tmp_path):
        shutil.copytree(workspace / "cohort", tmp_path / "cohort")
        sid = read_split_plan(tmp_path / "cohort" / "split_plan.json").subjects_in("train")[0]
        path = tmp_path / "cohort" / "timeseries" / f"{sid}.csv"
        ts = read_timeseries_csv(path)
        assert len(ts.samples) > 90
        write_timeseries_csv(path, RoiTimeSeries(sid, ts.samples[:90], ts.roi_names))
        lengths = {r.subject_id: len(r.timeseries.samples) for r in read_cohort(tmp_path / "cohort").subjects}
        assert lengths[sid] == 90 and len(set(lengths.values())) == 2
        code = run("train", "--cohort", tmp_path / "cohort", "--out", tmp_path / "model.ckpt")
        assert code == 0
        assert load_fit(tmp_path / "model.ckpt").loss_trace

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
