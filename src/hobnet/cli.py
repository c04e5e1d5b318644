"""Command line entry points.

Subcommands: ``synth`` (generate a cohort directory), ``graphgen`` (export
one subject's graph views), ``threshold-curve`` (retained-edge curve CSV),
``train`` (fit and checkpoint), ``eval`` (score a cohort against a split
plan), ``ablate`` (branch-configuration sweep), and ``popgraph``
(population-graph classification from a checkpoint).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .autodiff import NonFiniteValue, ShapeMismatch, TapeError
from .connectivity import (
    GAMMA_GRID,
    LEVELS,
    AtlasHierarchy,
    ConnectivityError,
    build_graph_set,
    read_covering_hierarchy,
    read_hierarchy_json,
    read_timeseries_csv,
    retained_fractions,
)
from .ffc import (
    PRESETS,
    CohortConnectivity,
    ModelConfig,
    ModelError,
    checkpoint_meta,
    fit,
    load_fit,
    parse_toggles,
    prepare_cohort,
    preset_train_config,
    save_checkpoint,
)
from .harness import (
    ExperimentRow,
    HarnessError,
    check_unseen,
    cohort_split_plan,
    compute_metrics,
    evaluate_fit,
    holdout_plan,
    make_splits,
    read_cohort,
    read_cohort_hierarchy,
    read_phenotypes_csv,
    read_split_plan,
    require_parts,
    run_ablation,
    synth_generate,
    write_cohort,
    write_metrics_csv,
)
from .hcnn import HcnnError
from .hgnn import ENCODERS, HgnnConfig, HgnnError
from .population import (
    PopulationError,
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
from .spectral import SpectralError

# failures that end a command with one line on stderr and exit code 2
CLI_ERRORS = (
    ConnectivityError,
    ModelError,
    HarnessError,
    PopulationError,
    SpectralError,
    HgnnError,
    HcnnError,
    OSError,
    ShapeMismatch,
    NonFiniteValue,
    TapeError,
)


def cmd_synth(args) -> int:
    hierarchy = read_hierarchy_json(args.hierarchy)
    cohort = synth_generate(
        args.subjects, hierarchy, signal=args.signal, noise=args.noise, seed=args.seed
    )
    plan = make_splits(cohort, holdout_plan(seed=args.seed))
    write_cohort(args.out, cohort, hierarchy=hierarchy, split_plan=plan)
    print(f"wrote {args.subjects} subjects to {args.out}")
    return 0


def check_flag(flag: str, value: float | None, high: float) -> None:
    """Refuse a flag's value outside [0, high], or NaN, naming the flag."""
    if value is not None and not 0.0 <= value <= high:
        raise HarnessError(f"{flag} must be in [0, {high:g}], got {value}")


def subject_levels(args) -> tuple[str, AtlasHierarchy, dict[str, np.ndarray]]:
    """The subject id of ``--timeseries``, the ``--hierarchy`` and each
    level's ``[m, m]`` composite connectivity over it, as preparation builds it."""
    ts = read_timeseries_csv(args.timeseries)
    hierarchy = read_covering_hierarchy(args.hierarchy, ts, args.timeseries)
    connectivity = CohortConnectivity.build([ts], hierarchy)
    return ts.subject_id, hierarchy, {lv: stack[0] for lv, stack in connectivity.levels.items()}


def cmd_graphgen(args) -> int:
    check_flag("--gamma", args.gamma, 1.0)
    check_flag("--retained-pct", args.retained_pct, 100.0)
    subject_id, hierarchy, levels = subject_levels(args)
    if args.gamma is not None:
        gammas = dict.fromkeys(LEVELS, float(args.gamma))
    else:  # per level, the smallest grid threshold at which at most that share of edges survives
        gammas = {}
        for lv in LEVELS:
            curve = retained_fractions(levels[lv], hierarchy.layout(lv).blocks, GAMMA_GRID)
            kept = curve <= args.retained_pct / 100.0
            gammas[lv] = float(GAMMA_GRID[np.argmax(kept)])
    adjacency = build_graph_set(levels, gammas, args.mode)
    records = [  # dense row-major; a level's features are its connectivity values
        {"level": lv, "gamma": gammas[lv], "mode": args.mode,
         "shape": list(adjacency[lv].shape), "adjacency": adjacency[lv].reshape(-1).tolist(),
         "features_shape": list(levels[lv].shape), "features": levels[lv].reshape(-1).tolist()}
        for lv in LEVELS
    ]
    with Path(args.out).open("w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote graph views for subject {subject_id} to {args.out}")
    return 0


def cmd_threshold_curve(args) -> int:
    if args.grid < 1:
        raise ConnectivityError(f"--grid must be at least 1, got {args.grid}")
    _, hierarchy, levels = subject_levels(args)
    grid = np.linspace(0.0, 1.0, args.grid)
    curve = retained_fractions(levels["lan"], hierarchy.layout("lan").blocks, grid)
    with Path(args.out).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gamma", "retained_fraction"])
        for gamma, fraction in zip(grid.tolist(), curve.tolist()):
            writer.writerow([repr(gamma), repr(fraction)])
    print(f"wrote {args.grid}-point retained-edge curve to {args.out}")
    return 0


def cmd_train(args) -> int:
    cohort = read_cohort(args.cohort)
    hierarchy = read_cohort_hierarchy(args.cohort, cohort)
    model_cfg = ModelConfig(
        toggles=parse_toggles(args.toggles),
        hgnn=HgnnConfig(k=args.k, blocks=args.blocks, encoder=args.encoder),
    )
    train_cfg = preset_train_config(args.preset, seed=args.seed)
    plan = cohort_split_plan(args.cohort, cohort, args.seed)
    require_parts(plan, ["train"], Path(args.cohort) / "split_plan.json")
    result = fit(cohort, hierarchy, model_cfg, train_cfg, subject_ids=plan.subjects_in("train"))
    save_checkpoint(args.out, result.params, checkpoint_meta(result))
    print(
        f"trained {model_cfg.toggles.name} for {train_cfg.epochs} epochs; "
        f"final loss {result.loss_trace[-1]:.4f}; checkpoint at {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    result = load_fit(args.ckpt)
    cohort = read_cohort(args.cohort)
    hierarchy = read_cohort_hierarchy(args.cohort, cohort)
    plan = read_split_plan(args.split_plan)
    require_parts(plan, [part for part, _, _ in plan.scored_parts()], args.split_plan)
    rows = [
        ExperimentRow(
            run_id=f"eval:{part}",
            seed=result.train_config.seed,
            fold=index,
            metrics=evaluate_fit(result, cohort, hierarchy, ids),
        )
        for index, (part, _, ids) in enumerate(plan.scored_parts())
    ]
    write_metrics_csv(args.out, rows)
    print(f"wrote {len(rows)} evaluation rows to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    cohort = read_cohort(args.cohort)
    hierarchy = read_cohort_hierarchy(args.cohort, cohort)
    # desk-scale sweep defaults: narrow model, short schedule
    model_cfg = ModelConfig(hgnn=HgnnConfig(hidden_dim=16))
    train_cfg = preset_train_config("custom", seed=0, epochs=40, dropout=0.1, batch_size=8)
    result = run_ablation(cohort, hierarchy, model_cfg, train_cfg, seeds=args.seeds)
    write_metrics_csv(args.out, result.rows)
    for name in sorted({r.run_id for r in result.rows}):
        subset = result.for_run(name)
        print(f"{name}: ACC {subset.mean('acc'):.3f} +- {subset.std('acc'):.3f}")
    print(f"wrote {len(result.rows)} ablation rows to {args.out}")
    return 0


def cmd_popgraph(args) -> int:
    check_flag("--retain-pct", args.retain_pct, 100.0)
    result = load_fit(args.ckpt)
    seed = result.train_config.seed
    cohort = read_cohort(args.cohort)
    hierarchy = read_cohort_hierarchy(args.cohort, cohort)
    phenotypes = read_phenotypes_csv(args.phenotypes)
    missing = [sid for sid in cohort.ids() if sid not in phenotypes]
    if missing:
        raise HarnessError(f"{args.phenotypes}: no row for cohort subject {missing[0]!r}")
    plan = cohort_split_plan(args.cohort, cohort, seed)
    require_parts(plan, ("train", "test"), Path(args.cohort) / "split_plan.json")
    result.check_atlas(cohort, hierarchy)
    check_unseen(result, plan.subjects_in("test"))
    batch = prepare_cohort(cohort, hierarchy, result.gammas, result.config.hgnn.encoder)
    records = [phenotypes[sid] for sid in batch.subject_ids]
    embeddings = embed_subjects(result.params, result.config, batch)
    encoder = build_phenotype_encoder(standardize_phenotypes(records).shape[1], seed=seed)
    _, adjacency = population_adjacency(
        similarity_m1(embeddings),
        phenotype_similarity_m2(records),
        weight_matrix(records, encoder),
        retain_fraction=args.retain_pct / 100.0,
    )
    order = {sid: i for i, sid in enumerate(batch.subject_ids)}
    train_idx = np.array([order[sid] for sid in plan.subjects_in("train")])
    test_idx = np.array([order[sid] for sid in plan.subjects_in("test")])
    pop = train_population_head(embeddings, adjacency, batch.labels, train_idx, seed=seed)
    probs = gcn_classify(embeddings, adjacency, pop.head).data
    metrics = compute_metrics(probs[test_idx, 1], batch.labels[test_idx])
    rows = [ExperimentRow(run_id="popgraph", seed=seed, fold=0, metrics=metrics)]
    write_metrics_csv(args.out, rows)
    print(
        f"population-graph test metrics: ACC {metrics.acc:.3f}, AUC {metrics.auc:.3f}; "
        f"wrote {args.out}"
    )
    return 0


class Parser(argparse.ArgumentParser):
    """Reports a misuse of any subcommand as one ``hobnet: error:`` line, exit code 2."""

    def error(self, message):
        self.exit(2, f"hobnet: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="hobnet",
        description="hierarchical brain-graph classifier with high-order features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort directory")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--signal", type=float, default=0.6)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("graphgen", help="export one subject's graph views as JSON")
    p.add_argument("--timeseries", required=True)
    p.add_argument("--hierarchy", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=float, default=None)
    group.add_argument(
        "--retained-pct",
        type=float,
        default=None,
        help="choose each level's threshold so roughly this percentage of edges survives",
    )
    p.add_argument("--mode", choices=["binary", "weighted"], default="binary")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graphgen)

    p = sub.add_parser("threshold-curve", help="region-level retained-edge curve CSV")
    p.add_argument("--timeseries", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_threshold_curve)

    p = sub.add_parser("train", help="fit on a cohort directory and write a checkpoint")
    p.add_argument("--cohort", required=True)
    p.add_argument("--preset", choices=[*PRESETS, "custom"], default="custom")
    p.add_argument("--toggles", default=ModelConfig().toggles.name)
    p.add_argument("--encoder", choices=ENCODERS, default=HgnnConfig.encoder)
    p.add_argument("--k", type=int, default=HgnnConfig.k)
    p.add_argument("--blocks", type=int, default=HgnnConfig.blocks)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a cohort against a split plan")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--split-plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the branch-configuration sweep")
    p.add_argument("--cohort", required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("popgraph", help="population-graph classification from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--phenotypes", required=True)
    p.add_argument("--retain-pct", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_popgraph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLI_ERRORS as exc:
        print(f"hobnet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
