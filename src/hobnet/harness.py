"""Synthetic cohorts, split plans, metrics, and experiment drivers.

The generator plants a class difference as strengthened correlations
between the first two networks of the hierarchy, standing in for clinical
recordings at desk scale. Splits are stratified and seeded; metrics use a
rank-based AUC with tie correction; drivers aggregate per-fold results into
deterministic CSV files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .connectivity import (
    AtlasHierarchy,
    RoiTimeSeries,
    read_hierarchy_json,
    read_timeseries_csv,
    write_hierarchy_json,
    write_timeseries_csv,
)
from .ffc import (
    FitResult,
    ModelConfig,
    TrainConfig,
    fit,
    parse_toggles,
    prepare_cohort,
    score_subjects,
)
from .population import PhenotypeRecord
from .rng import named_stream


class HarnessError(ValueError):
    pass


class SingleClassError(HarnessError):
    """A metric needed both classes but saw only one."""


# ---------------------------------------------------------------------------
# cohort
# ---------------------------------------------------------------------------


@dataclass
class SubjectRecord:
    timeseries: RoiTimeSeries
    label: int
    phenotype: PhenotypeRecord

    @property
    def subject_id(self) -> str:
        return self.timeseries.subject_id


@dataclass
class Cohort:
    subjects: list[SubjectRecord]

    def __post_init__(self):
        ids = [s.subject_id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise HarnessError("subject ids must be unique")
        labels = [s.label for s in self.subjects]
        for cls in (0, 1):
            if labels.count(cls) < 2:
                raise HarnessError(f"cohort needs at least 2 subjects of class {cls}")

    def ids(self) -> list[str]:
        return [s.subject_id for s in self.subjects]

    def labels(self) -> dict[str, int]:
        return {s.subject_id: s.label for s in self.subjects}


def nested_hierarchy(
    n_networks: int = 4, groups_per_network: int = 2, rois_per_group: int = 2
) -> AtlasHierarchy:
    """Uniform synthetic parcellation with generated names."""
    rois, man, wan = [], {}, {}
    for n in range(n_networks):
        net = f"net{n}"
        for g in range(groups_per_network):
            group = f"net{n}.grp{g}"
            wan[group] = net
            for r in range(rois_per_group):
                roi = f"{group}.roi{r}"
                rois.append(roi)
                man[roi] = group
    return AtlasHierarchy(rois=rois, man_partition=man, wan_partition=wan)


GENDERS = ("F", "M")
SITES = ("site-a", "site-b", "site-c")

_GROUP_FACTOR_WEIGHT = 0.5


def synth_generate(
    n_subjects: int,
    hierarchy: AtlasHierarchy,
    signal: float = 0.6,
    noise: float = 0.5,
    seed: int = 0,
    n_timepoints: int = 120,
) -> Cohort:
    """Block-correlated Gaussian cohort with a planted class difference.

    Every ROI mixes its network factor, its group factor, and private noise,
    normalized to unit variance. Class 1 additionally mixes a shared factor
    into the first two networks with weight ``signal``, which raises their
    inter-network correlation by ``signal**2`` while leaving class 0
    untouched; ``signal=0`` makes the classes distributionally identical.
    """
    if signal < 0:
        raise HarnessError(f"signal strength must be >= 0, got {signal}")
    if signal > 1:
        raise HarnessError(f"signal strength must be <= 1 (it is a mixing weight), got {signal}")
    if noise < 0:
        raise HarnessError(f"noise level must be >= 0, got {noise}")
    if signal > 0 and len(hierarchy.networks) < 2:
        raise HarnessError("planting a signal needs at least 2 networks in the hierarchy")
    rois = hierarchy.ordered_rois
    net_of_roi = [hierarchy.wan_partition[hierarchy.man_partition[r]] for r in rois]
    group_index = {g: i for i, g in enumerate(hierarchy.groups)}
    net_index = {n: i for i, n in enumerate(hierarchy.networks)}
    planted = set(hierarchy.networks[:2])
    scale = math.sqrt(1.0 + _GROUP_FACTOR_WEIGHT**2 + noise**2)

    subjects = []
    for i in range(n_subjects):
        stream = named_stream(seed, f"synth/subject/{i}")
        label = i % 2
        net_factors = stream.normal(size=(n_timepoints, len(hierarchy.networks)))
        group_factors = stream.normal(size=(n_timepoints, len(hierarchy.groups)))
        private = stream.normal(size=(n_timepoints, len(rois)))
        shared = stream.normal(size=n_timepoints)
        samples = np.empty((n_timepoints, len(rois)))
        for j, roi in enumerate(rois):
            g = group_index[hierarchy.man_partition[roi]]
            n = net_index[net_of_roi[j]]
            x = (
                net_factors[:, n]
                + _GROUP_FACTOR_WEIGHT * group_factors[:, g]
                + noise * private[:, j]
            ) / scale
            if label == 1 and net_of_roi[j] in planted:
                x = math.sqrt(1.0 - signal**2) * x + signal * shared
            samples[:, j] = x
        phenotype = PhenotypeRecord(
            subject_id=f"s{i:04d}",
            gender=GENDERS[int(stream.integers(len(GENDERS)))],
            age=float(np.round(stream.uniform(8.0, 30.0), 1)),
            site=SITES[int(stream.integers(len(SITES)))],
        )
        ts = RoiTimeSeries(subject_id=f"s{i:04d}", samples=samples, roi_names=list(rois))
        subjects.append(SubjectRecord(timeseries=ts, label=label, phenotype=phenotype))
    return Cohort(subjects=subjects)


# ---------------------------------------------------------------------------
# split plans
# ---------------------------------------------------------------------------


@dataclass
class SplitPlan:
    mode: str
    seed: int
    k: int | None = None
    fractions: tuple[float, float, float] | None = None
    assignments: dict[str, str] = field(default_factory=dict)

    def subjects_in(self, part: str) -> list[str]:
        return [sid for sid, p in self.assignments.items() if p == part]

    def folds(self) -> list[str]:
        """k-fold part names in numeric order: fold0, fold1, ..., fold10."""
        parts = {p for p in self.assignments.values() if p.startswith("fold")}
        return sorted(parts, key=lambda p: int(p[len("fold"):]))

    def scored_parts(self) -> list[tuple[str, list[str], list[str]]]:
        """(part, training ids, scored ids) for each part that reports metrics.

        A holdout scores its test part with a model trained on its train
        part; a k-fold plan scores every fold, in order, against the others.
        """
        if self.mode == "holdout":
            return [("test", self.subjects_in("train"), self.subjects_in("test"))]
        return [
            (fold, [sid for sid, p in self.assignments.items() if p != fold], self.subjects_in(fold))
            for fold in self.folds()
        ]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "k": self.k,
            "fractions": list(self.fractions) if self.fractions else None,
            "assignments": self.assignments,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SplitPlan":
        return cls(
            mode=payload["mode"],
            seed=payload["seed"],
            k=payload.get("k"),
            fractions=tuple(payload["fractions"]) if payload.get("fractions") else None,
            assignments=dict(payload.get("assignments", {})),
        )


def holdout_plan(seed: int, fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)) -> SplitPlan:
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
        raise HarnessError(f"holdout fractions must be non-negative and sum to 1, got {fractions}")
    return SplitPlan(mode="holdout", seed=seed, fractions=fractions)


def kfold_plan(seed: int, k: int) -> SplitPlan:
    if k < 2:
        raise HarnessError(f"k-fold needs k >= 2, got {k}")
    return SplitPlan(mode="kfold", seed=seed, k=k)


def _apportion(class_counts: dict[int, int], target: int, total: int) -> dict[int, int]:
    """Largest-remainder allocation of ``target`` slots across classes."""
    quotas = {c: n * target / total for c, n in class_counts.items()}
    base = {c: int(math.floor(q)) for c, q in quotas.items()}
    short = target - sum(base.values())
    by_remainder = sorted(quotas, key=lambda c: (quotas[c] - base[c], -c), reverse=True)
    for c in by_remainder[:short]:
        base[c] += 1
    return {c: min(n, class_counts[c]) for c, n in base.items()}


def make_splits(cohort: Cohort, plan: SplitPlan) -> SplitPlan:
    """Stratified, disjoint, covering assignments; deterministic by seed."""
    by_class: dict[int, list[str]] = {0: [], 1: []}
    for record in cohort.subjects:
        by_class[record.label].append(record.subject_id)
    shuffled = {
        c: [ids[i] for i in named_stream(plan.seed, f"split/class{c}").permutation(len(ids))]
        for c, ids in by_class.items()
    }
    assignments: dict[str, str] = {}
    if plan.mode == "kfold":
        assert plan.k is not None
        for c, ids in shuffled.items():
            if len(ids) < plan.k:
                raise HarnessError(
                    f"class {c} has {len(ids)} subjects, fewer than {plan.k} folds"
                )
            for i, sid in enumerate(ids):
                assignments[sid] = f"fold{i % plan.k}"
    elif plan.mode == "holdout":
        assert plan.fractions is not None
        total = len(cohort.subjects)
        counts = {c: len(ids) for c, ids in shuffled.items()}
        n_train = round(plan.fractions[0] * total)
        n_val = round(plan.fractions[1] * total)
        train_quota = _apportion(counts, n_train, total)
        remaining = {c: counts[c] - train_quota[c] for c in counts}
        val_quota = _apportion(remaining, n_val, total - n_train)
        for c, ids in shuffled.items():
            a, b = train_quota[c], train_quota[c] + val_quota[c]
            for sid in ids[:a]:
                assignments[sid] = "train"
            for sid in ids[a:b]:
                assignments[sid] = "val"
            for sid in ids[b:]:
                assignments[sid] = "test"
        for part in ("train", "test"):
            members = [sid for sid, p in assignments.items() if p == part]
            labels = cohort.labels()
            if len({labels[sid] for sid in members}) < 2:
                raise HarnessError(f"class too small: the {part} split lacks one class")
    else:
        raise HarnessError(f"unknown split mode {plan.mode!r}")
    return replace(plan, assignments=assignments)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC with tie correction: P(score_pos > score_neg) + ties/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC undefined: both classes must be present")
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class Metrics:
    acc: float
    sen: float
    spec: float
    auc: float

    @property
    def avg(self) -> float:
        return (self.acc + self.sen + self.spec + self.auc) / 4.0

    def as_row(self) -> list[float]:
        return [self.acc, self.sen, self.spec, self.auc, self.avg]


def compute_metrics(
    scores: np.ndarray,
    labels: np.ndarray,
) -> Metrics:
    """Confusion metrics at threshold 0.5 plus rank-based AUC.

    Predictions are positive at ``score >= 0.5``. A single-class label set
    makes AUC (and one of SEN/SPEC) undefined, so the call raises
    ``SingleClassError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise HarnessError(f"scores shape {scores.shape} != labels shape {labels.shape}")
    preds = scores >= 0.5
    actual = labels == 1
    tp = int(np.sum(preds & actual))
    tn = int(np.sum(~preds & ~actual))
    fp = int(np.sum(preds & ~actual))
    fn = int(np.sum(~preds & actual))
    acc = (tp + tn) / len(labels)
    auc = mann_whitney_auc(scores, labels)
    sen = tp / (tp + fn)
    spec = tn / (tn + fp)
    return Metrics(acc=acc, sen=sen, spec=spec, auc=auc)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRow:
    run_id: str
    seed: int
    fold: int
    metrics: Metrics


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow]

    def mean(self, attr: str) -> float:
        return float(np.mean([getattr(r.metrics, attr) for r in self.rows]))

    def std(self, attr: str) -> float:
        return float(np.std([getattr(r.metrics, attr) for r in self.rows]))

    def for_run(self, run_id: str) -> "ExperimentResult":
        return ExperimentResult([r for r in self.rows if r.run_id == run_id])


CSV_HEADER = ["run_id", "seed", "fold", "acc", "sen", "spec", "auc", "avg"]


def write_metrics_csv(path: str | Path, rows: Iterable[ExperimentRow]) -> None:
    """Deterministic CSV: repr-formatted floats, newline-terminated rows."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                [row.run_id, row.seed, row.fold] + [repr(v) for v in row.metrics.as_row()]
            )


def check_unseen(result: FitResult, subject_ids: Iterable[str]) -> None:
    """Refuse to report metrics on a subject the fit was trained on."""
    seen = set(result.subject_ids).intersection(subject_ids)
    if seen:
        raise HarnessError(
            f"{len(seen)} scored subjects were trained on (first {min(seen)!r}); "
            "train on the split plan's train part"
        )


def evaluate_fit(result: FitResult, cohort: Cohort, hierarchy: AtlasHierarchy, subject_ids) -> Metrics:
    """Score held-out subjects with the fit's thresholds and encoder.

    Refuses subjects the fit was trained on and subjects not in the cohort.
    """
    subject_ids = list(subject_ids)
    check_unseen(result, subject_ids)
    known = set(cohort.ids())
    unknown = [sid for sid in subject_ids if sid not in known]
    if unknown:
        raise HarnessError(
            f"{len(unknown)} scored subjects are not in the cohort (first {unknown[0]!r})"
        )
    subs = prepare_cohort(
        cohort,
        hierarchy,
        result.gammas,
        encoder=result.config.hgnn.encoder,
        subject_ids=subject_ids,
    )
    scores = score_subjects(result.params, result.config, subs)
    labels = np.array([s.label for s in subs])
    return compute_metrics(scores, labels)


def run_experiment(
    cohort: Cohort,
    hierarchy: AtlasHierarchy,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    mode: str = "holdout",
    k: int = 10,
    repeats: int = 10,
    run_id: str = "run",
    gammas: dict[str, float] | float | None = None,
) -> ExperimentResult:
    """Train/evaluate over repeated holdouts or k folds; one row per fold.

    Row ``f`` trains with seed ``train_cfg.seed + f``. A holdout repeat
    re-splits with that seed, so the rows are independent draws of the same
    configuration. k-fold splits once with ``train_cfg.seed`` and scores the
    folds in numeric order (fold0, fold1, ..., fold10), each with a model
    trained on all the other folds.
    """
    if mode == "holdout":
        plans = [
            make_splits(cohort, holdout_plan(train_cfg.seed + r)) for r in range(repeats)
        ]
    elif mode == "kfold":
        plans = [make_splits(cohort, kfold_plan(train_cfg.seed, k))]
    else:
        raise HarnessError(f"unknown experiment mode {mode!r}")
    folds = [(train, test) for plan in plans for _, train, test in plan.scored_parts()]
    rows = []
    for f, (train_ids, test_ids) in enumerate(folds):
        seed_f = train_cfg.seed + f
        result = fit(
            cohort,
            hierarchy,
            model_cfg,
            replace(train_cfg, seed=seed_f),
            subject_ids=train_ids,
            gammas=gammas,
        )
        metrics = evaluate_fit(result, cohort, hierarchy, test_ids)
        rows.append(ExperimentRow(run_id=run_id, seed=seed_f, fold=f, metrics=metrics))
    return ExperimentResult(rows=rows)


TABLE4_TOGGLES = [
    "GNN-lan-only",
    "GNN",
    "CNN",
    "HGNN",
    "HCNN",
    "HCNN+GNN",
    "HGNN+CNN",
    "HGNN+HCNN",
]


def run_ablation(
    cohort: Cohort,
    hierarchy: AtlasHierarchy,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    toggles: Sequence[str] = tuple(TABLE4_TOGGLES),
    seeds: int = 5,
) -> ExperimentResult:
    """One holdout run per (branch configuration, seed)."""
    rows = []
    for name in toggles:
        cfg = replace(model_cfg, toggles=parse_toggles(name))
        rows += run_experiment(
            cohort, hierarchy, cfg, train_cfg, mode="holdout", repeats=seeds, run_id=name
        ).rows
    return ExperimentResult(rows=rows)


# ---------------------------------------------------------------------------
# cohort directory format
# ---------------------------------------------------------------------------


def write_cohort(
    directory: str | Path,
    cohort: Cohort,
    hierarchy: AtlasHierarchy | None = None,
    split_plan: SplitPlan | None = None,
) -> None:
    directory = Path(directory)
    (directory / "timeseries").mkdir(parents=True, exist_ok=True)
    for record in cohort.subjects:
        write_timeseries_csv(directory / "timeseries" / f"{record.subject_id}.csv", record.timeseries)
    with (directory / "labels.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject-id", "label"])
        for record in cohort.subjects:
            writer.writerow([record.subject_id, record.label])
    with (directory / "phenotypes.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject-id", "gender", "age", "site"])
        for record in cohort.subjects:
            p = record.phenotype
            writer.writerow([p.subject_id, p.gender, repr(p.age), p.site])
    if hierarchy is not None:
        write_hierarchy_json(directory / "hierarchy.json", hierarchy)
    if split_plan is not None:
        with (directory / "split_plan.json").open("w") as fh:
            json.dump(split_plan.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _read_table(path: Path, needed: set[str]) -> Iterable[tuple[int, dict[str, str]]]:
    """(line number, row) pairs of a CSV whose header has the ``needed`` columns."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise HarnessError(f"{path}: CSV needs columns {sorted(needed)}")
        for row in reader:
            if None in row or None in row.values():
                raise HarnessError(
                    f"{path}: row {reader.line_num}: subject {row.get('subject-id')!r}: "
                    f"row length differs from the {len(reader.fieldnames)}-column header"
                )
            yield reader.line_num, row


def _check_first_row(path: Path, lines: dict[str, int], subject_id: str, line: int) -> None:
    """Record ``subject_id``'s row in ``lines``, refusing a second row for it."""
    if subject_id in lines:
        raise HarnessError(
            f"{path}: rows {lines[subject_id]} and {line}: subject {subject_id!r} appears twice"
        )
    lines[subject_id] = line


def read_phenotypes_csv(path: str | Path) -> dict[str, PhenotypeRecord]:
    path = Path(path)
    records = {}
    lines: dict[str, int] = {}
    for line, row in _read_table(path, {"subject-id", "gender", "age", "site"}):
        _check_first_row(path, lines, row["subject-id"], line)
        try:
            rec = PhenotypeRecord(
                subject_id=row["subject-id"], gender=row["gender"], age=row["age"], site=row["site"]
            )
        except ValueError as exc:  # a non-numeric age, or PopulationError
            raise HarnessError(f"{path}: row {line}: subject {row['subject-id']!r}: {exc}") from None
        records[rec.subject_id] = rec
    return records


def read_cohort(directory: str | Path) -> Cohort:
    directory = Path(directory)
    labels_path = directory / "labels.csv"
    labels: dict[str, int] = {}
    lines: dict[str, int] = {}
    for line, row in _read_table(labels_path, {"subject-id", "label"}):
        _check_first_row(labels_path, lines, row["subject-id"], line)
        try:
            label = int(row["label"])
        except ValueError:
            label = None
        if label not in (0, 1):
            raise HarnessError(
                f"{labels_path}: row {line}: subject {row['subject-id']!r}: "
                f"label {row['label']!r} is not 0 or 1"
            )
        labels[row["subject-id"]] = label
    phenotypes_path = directory / "phenotypes.csv"
    phenotypes = read_phenotypes_csv(phenotypes_path)
    subjects = []
    for sid in sorted(labels):
        label, line = labels[sid], lines[sid]
        if sid not in phenotypes:
            raise HarnessError(
                f"{phenotypes_path}: no row for subject {sid!r} (row {line} of {labels_path})"
            )
        ts_path = directory / "timeseries" / f"{sid}.csv"
        if not ts_path.is_file():
            raise HarnessError(f"{labels_path}: row {line}: subject {sid!r}: no file {ts_path}")
        ts = read_timeseries_csv(ts_path, subject_id=sid)
        subjects.append(SubjectRecord(timeseries=ts, label=label, phenotype=phenotypes[sid]))
    return Cohort(subjects=subjects)


def read_split_plan(path: str | Path) -> SplitPlan:
    with Path(path).open() as fh:
        try:
            return SplitPlan.from_json(json.load(fh))
        except json.JSONDecodeError as exc:
            raise HarnessError(f"{path}: not valid JSON ({exc})") from None
        except KeyError as exc:
            raise HarnessError(f"{path}: split plan file is missing key {exc}") from None


def cohort_split_plan(directory: str | Path, cohort: Cohort, seed: int) -> SplitPlan:
    """The holdout plan the CLI trains and scores by.

    That is the cohort directory's ``split_plan.json`` when present, else a
    stratified holdout of ``cohort`` seeded with ``seed``. A plan naming a
    subject the cohort lacks is refused.
    """
    path = Path(directory) / "split_plan.json"
    plan = read_split_plan(path) if path.exists() else make_splits(cohort, holdout_plan(seed))
    if plan.mode != "holdout":
        raise HarnessError(f"{path}: train and popgraph need a holdout plan, got {plan.mode!r}")
    known = set(cohort.ids())
    unknown = [sid for sid in plan.assignments if sid not in known]
    if unknown:
        raise HarnessError(
            f"{path}: {len(unknown)} split-plan subjects are not in the cohort (first {unknown[0]!r})"
        )
    return plan


def read_cohort_hierarchy(directory: str | Path) -> AtlasHierarchy:
    path = Path(directory) / "hierarchy.json"
    if not path.exists():
        raise HarnessError(f"{directory}: no hierarchy.json in cohort directory")
    return read_hierarchy_json(path)
