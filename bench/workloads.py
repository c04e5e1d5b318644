"""The two benchmark workloads: set-up, one timed pass, and output checks.

A pass runs the workload's stages in order, times each stage, checks each
stage's output outside the timer and keeps the outputs that must repeat bit
for bit. Every stage is one operation: it fails when it raises or when a
check on its output fails. All sizes are fixed here; only the cohort seed
comes from the command line.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from hobnet.connectivity import LEVELS, AtlasHierarchy
from hobnet.ffc import (
    ModelConfig,
    TrainConfig,
    build_model_params,
    fit,
    parse_toggles,
    prepare_cohort,
    score_subjects,
    select_cohort_gammas,
)
from hobnet.harness import (
    Cohort,
    SplitPlan,
    compute_metrics,
    evaluate_fit,
    holdout_plan,
    make_splits,
    nested_hierarchy,
    synth_generate,
)
from hobnet.hcnn import HcnnConfig
from hobnet.hgnn import HgnnConfig
from hobnet.population import (
    build_phenotype_encoder,
    embed_subjects,
    gcn_classify,
    phenotype_similarity_m2,
    population_adjacency,
    similarity_m1,
    standardize_phenotypes,
    train_population_head,
    weight_matrix,
)

from tracing import RV

# the acceptance criterion-5 model
MODEL = ModelConfig(
    toggles=parse_toggles("HGNN+HCNN"),
    hgnn=HgnnConfig(k=3, blocks=3, hidden_dim=16),
    hcnn=HcnnConfig(out_dim=16),
    head_hidden=(64,),
)
LEARNING_RATE = 1e-4
BATCH_SIZE = 8
HOLDOUT_SEED = 7
SIGNAL, NOISE, TIMEPOINTS = 0.6, 0.5, 120
POP_RETAIN = 0.10


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Inputs:
    hierarchy: AtlasHierarchy
    cohort: Cohort
    plan: SplitPlan


class Pass:
    """Stage times, derived metrics and repeatable outputs of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stage_s: dict[str, float] = {}
        self.rv_calls: dict[str, int] = {}
        self.metrics: dict[str, float] = {}
        self.outputs: dict[str, object] = {}
        self.counts: dict[str, float] = {}
        self.failed: str | None = None
        self.current = ""
        self.stages_run = 0

    @contextmanager
    def stage(self, name: str):
        """Time the program calls of one stage; its checks follow the block."""
        self.current = name
        self.stages_run += 1
        rv_before = self.tracer.calls[RV] if self.tracer else 0
        start = perf_counter()
        yield
        self.stage_s[name] = perf_counter() - start
        if self.tracer:
            self.rv_calls[name] = self.tracer.calls[RV] - rv_before

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())

    def rv_calls_per_subject(self, stages: tuple[str, ...], subjects: int) -> float:
        return sum(self.rv_calls[s] for s in stages) / subjects


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_subjects(subs, hierarchy, expected: int) -> None:
    """Every prepared subject carries its hierarchy's level shapes."""
    check(len(subs) == expected, f"prepared {len(subs)} subjects, expected {expected}")
    n_roi = len(hierarchy.ordered_rois)
    for sub in subs:
        for level in LEVELS:
            m = len(hierarchy.level_nodes(level))
            li = sub.levels[level]
            shapes = (li.features.shape, li.lap.laplacian.shape, li.lap.rescaled.shape)
            check(shapes == ((m, m),) * 3, f"{sub.subject_id} {level} shapes {shapes}, expected {m}x{m}")
            check(bool(np.all(np.isfinite(li.lap.rescaled))), f"{sub.subject_id} {level} non-finite")
        fc_shape = tuple(sub.fc_input.shape)
        check(fc_shape == (1, n_roi * (n_roi - 1) // 2), f"{sub.subject_id} fc shape {fc_shape}")


def check_probabilities(probs: np.ndarray, rows: int) -> None:
    """Finite, in [0, 1], and (for class matrices) rows summing to 1."""
    check(probs.shape[0] == rows, f"{probs.shape[0]} probability rows, expected {rows}")
    check(bool(np.all(np.isfinite(probs))), "non-finite probability")
    check(bool(np.all((probs >= 0.0) & (probs <= 1.0))), "probability outside [0, 1]")
    if probs.ndim == 2:
        worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        check(worst <= 1e-12, f"probability rows sum to 1 only within {worst:.3g}")


def check_fit(result, epochs: int) -> None:
    trace = np.asarray(result.loss_trace)
    check(trace.shape == (epochs,), f"loss trace has {trace.size} epochs, expected {epochs}")
    check(bool(np.all(np.isfinite(trace))), "non-finite training loss")
    check(trace[-1] < trace[0], f"loss did not fall: {trace[0]:.6g} -> {trace[-1]:.6g}")


def param_digest(params) -> str:
    h = hashlib.sha256()
    for p in params.parameters():
        h.update(p.name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def record_params(run: Pass, params) -> None:
    run.counts["ffc.param_count"] = params.total_size()
    run.counts["ffc.param_bytes"] = sum(p.data.nbytes for p in params.parameters())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def acc_train(inputs: Inputs, run: Pass, epochs: int) -> None:
    """Holdout fit, evaluation, then the population-graph stage."""
    cohort, hierarchy, plan = inputs.cohort, inputs.hierarchy, inputs.plan
    train_ids, test_ids = plan.subjects_in("train"), plan.subjects_in("test")
    n_all = len(cohort.subjects)
    train_cfg = TrainConfig(
        learning_rate=LEARNING_RATE, epochs=epochs, seed=HOLDOUT_SEED, batch_size=BATCH_SIZE
    )
    with run.stage("fit"):
        result = fit(cohort, hierarchy, MODEL, train_cfg, subject_ids=train_ids)
    check_fit(result, epochs)
    with run.stage("evaluate"):
        metrics = evaluate_fit(result, cohort, hierarchy, test_ids)
    check(0.0 <= metrics.auc <= 1.0, f"test AUC {metrics.auc}")
    with run.stage("prepare"):
        subs = prepare_cohort(cohort, hierarchy, result.gammas, encoder=result.config.hgnn.encoder)
    check_subjects(subs, hierarchy, n_all)
    with run.stage("embed"):
        y = embed_subjects(result.params, result.config, subs)
    check(y.shape == (n_all, MODEL.fused_width()), f"embedding shape {y.shape}")
    check(bool(np.all(np.isfinite(y))), "non-finite embedding")
    with run.stage("popgraph"):
        records = [r.phenotype for r in cohort.subjects]
        encoder = build_phenotype_encoder(
            standardize_phenotypes(records).shape[1], seed=HOLDOUT_SEED
        )
        _, adjacency = population_adjacency(
            similarity_m1(y),
            phenotype_similarity_m2(records),
            weight_matrix(records, encoder),
            retain_fraction=POP_RETAIN,
        )
        order = {s.subject_id: i for i, s in enumerate(subs)}
        train_idx = np.array([order[sid] for sid in train_ids])
        test_idx = np.array([order[sid] for sid in test_ids])
        labels = np.array([s.label for s in subs])
        pop = train_population_head(y, adjacency, labels, train_idx, seed=HOLDOUT_SEED)
        probs = gcn_classify(y, adjacency, pop.head).data
    check_probabilities(probs, n_all)
    pop_metrics = compute_metrics(probs[test_idx, 1], labels[test_idx])

    s = run.stage_s
    run.metrics["train_subjects_per_s"] = len(train_ids) * epochs / s["fit"]
    run.metrics["prepare_subjects_per_s"] = n_all / s["prepare"]
    run.metrics["infer_subjects_per_s"] = (len(test_ids) + n_all) / (s["evaluate"] + s["embed"])
    run.metrics["popgraph_s"] = s["popgraph"]
    run.metrics["test_auc"] = metrics.auc
    run.metrics["pop_test_auc"] = pop_metrics.auc
    run.metrics["final_train_loss"] = result.loss_trace[-1]
    run.outputs.update(
        loss_trace=np.array(result.loss_trace),
        params=param_digest(result.params),
        test_auc=metrics.auc,
        pop_test_auc=pop_metrics.auc,
        embeddings=y,
        pop_probs=probs,
    )
    record_params(run, result.params)
    if run.tracer:
        run.counts["connectivity.rv_calls_per_subject"] = run.rv_calls_per_subject(
            ("fit",), len(train_ids)
        )


def atlas_prep(inputs: Inputs, run: Pass, epochs: int) -> None:
    """Gamma selection, preparation of every subject, forward-only scoring."""
    del epochs  # nothing is trained
    cohort, hierarchy, plan = inputs.cohort, inputs.hierarchy, inputs.plan
    train_ids = set(plan.subjects_in("train"))
    n_all = len(cohort.subjects)
    with run.stage("select"):
        gammas = select_cohort_gammas(
            [r.timeseries for r in cohort.subjects if r.subject_id in train_ids], hierarchy
        )
    check(all(0.0 <= gammas[lv] <= 1.0 for lv in LEVELS), f"gammas {gammas}")
    with run.stage("prepare"):
        subs = prepare_cohort(cohort, hierarchy, gammas, encoder=MODEL.hgnn.encoder)
    check_subjects(subs, hierarchy, n_all)
    with run.stage("build"):
        widths = {level: subs[0].levels[level].width for level in LEVELS}
        params = build_model_params(MODEL, widths, subs[0].fc_len, seed=HOLDOUT_SEED)
    with run.stage("score"):
        scores = score_subjects(params, MODEL, subs)
    check_probabilities(scores, n_all)

    s = run.stage_s
    run.metrics["prepare_subjects_per_s"] = n_all / (s["select"] + s["prepare"])
    run.metrics["infer_subjects_per_s"] = n_all / s["score"]
    run.outputs.update(gammas=[gammas[lv] for lv in LEVELS], scores=scores)
    record_params(run, params)
    if run.tracer:
        run.counts["connectivity.rv_calls_per_subject"] = run.rv_calls_per_subject(
            ("select", "prepare"), n_all
        )


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int, int]  # networks, groups per network, ROIs per group
    subjects: int
    epochs: int
    stages: tuple[str, ...]
    body: Callable[[Inputs, Pass, int], None]

    def setup(self, seed: int) -> Inputs:
        hierarchy = nested_hierarchy(*self.shape)
        cohort = synth_generate(
            self.subjects, hierarchy, signal=SIGNAL, noise=NOISE, seed=seed, n_timepoints=TIMEPOINTS
        )
        plan = make_splits(cohort, holdout_plan(HOLDOUT_SEED))  # 70/10/20
        return Inputs(hierarchy=hierarchy, cohort=cohort, plan=plan)

    def run(self, inputs: Inputs, tracer=None) -> Pass:
        """One pass; the first stage that raises or fails a check ends it."""
        run = Pass(tracer)
        try:
            self.body(inputs, run, self.epochs)
        except Exception as exc:  # the program's own errors and failed checks alike
            run.failed = f"{run.current}: {type(exc).__name__}: {exc}"
        return run


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("acc-train", (4, 2, 2), 200, 3, ("fit", "evaluate", "prepare", "embed", "popgraph"), acc_train),
        Workload("atlas-prep", (7, 4, 7), 12, 0, ("select", "prepare", "build", "score"), atlas_prep),
    )
}


def same_outputs(a: dict, b: dict) -> list[str]:
    """Names of outputs that differ bit for bit between two passes."""
    differ = []
    for key in a.keys() | b.keys():
        x, y = a.get(key), b.get(key)
        if isinstance(x, (np.ndarray, list)) or isinstance(y, (np.ndarray, list)):
            xa, ya = np.asarray(x), np.asarray(y)
            equal = xa.shape == ya.shape and xa.tobytes() == ya.tobytes()
        else:
            equal = type(x) is type(y) and (x == y or (x != x and y != y))
        if not equal:
            differ.append(key)
    return sorted(differ)
