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
    LEVELS,
    ConnectivityError,
    build_graph_set,
    composite_connectivity,
    gamma_for_retained_fraction,
    graph_set_to_json,
    read_hierarchy_json,
    read_timeseries_csv,
    retained_edge_curve,
)
from .ffc import (
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
    run_ablation,
    synth_generate,
    write_cohort,
    write_metrics_csv,
)
from .hcnn import HcnnError
from .hgnn import HgnnConfig, HgnnError
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


def cmd_graphgen(args) -> int:
    ts = read_timeseries_csv(args.timeseries)
    hierarchy = read_hierarchy_json(args.hierarchy)
    if args.gamma is not None:
        gammas = float(args.gamma)
    else:
        gammas = {
            level: gamma_for_retained_fraction(
                composite_connectivity(ts, hierarchy, level), args.retained_pct / 100.0
            )
            for level in LEVELS
        }
    graphs = build_graph_set(ts, hierarchy, gammas=gammas, mode=args.mode)
    with Path(args.out).open("w") as fh:
        json.dump(graph_set_to_json(graphs), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote graph views for subject {ts.subject_id} to {args.out}")
    return 0


def cmd_threshold_curve(args) -> int:
    ts = read_timeseries_csv(args.timeseries)
    hierarchy = read_hierarchy_json(args.hierarchy)
    cm = composite_connectivity(ts, hierarchy, "lan")
    curve = retained_edge_curve(cm, np.linspace(0.0, 1.0, args.grid))
    with Path(args.out).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gamma", "retained_fraction"])
        for gamma, fraction in curve:
            writer.writerow([repr(gamma), repr(fraction)])
    print(f"wrote {args.grid}-point retained-edge curve to {args.out}")
    return 0


def cmd_train(args) -> int:
    cohort = read_cohort(args.cohort)
    hierarchy = read_hierarchy_json(args.hierarchy)
    model_cfg = ModelConfig(
        toggles=parse_toggles(args.toggles),
        hgnn=HgnnConfig(k=args.k, blocks=args.blocks, encoder=args.encoder),
    )
    train_cfg = preset_train_config(args.preset, seed=args.seed)
    plan = cohort_split_plan(args.cohort, cohort, args.seed)
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
    hierarchy = read_cohort_hierarchy(args.cohort)
    plan = read_split_plan(args.split_plan)
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
    hierarchy = read_cohort_hierarchy(args.cohort)
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
    result = load_fit(args.ckpt)
    seed = result.train_config.seed
    cohort = read_cohort(args.cohort)
    hierarchy = read_cohort_hierarchy(args.cohort)
    phenotypes = read_phenotypes_csv(args.phenotypes)
    missing = [sid for sid in cohort.ids() if sid not in phenotypes]
    if missing:
        raise HarnessError(f"{args.phenotypes}: no row for cohort subject {missing[0]!r}")
    plan = cohort_split_plan(args.cohort, cohort, seed)
    check_unseen(result, plan.subjects_in("test"))
    subs = prepare_cohort(
        cohort,
        hierarchy,
        result.gammas,
        encoder=result.config.hgnn.encoder,
    )
    records = [phenotypes[s.subject_id] for s in subs]
    embeddings = embed_subjects(result.params, result.config, subs)
    encoder = build_phenotype_encoder(standardize_phenotypes(records).shape[1], seed=seed)
    _, adjacency = population_adjacency(
        similarity_m1(embeddings),
        phenotype_similarity_m2(records),
        weight_matrix(records, encoder),
        retain_fraction=args.retain_pct / 100.0,
    )
    order = {sid: i for i, sid in enumerate(s.subject_id for s in subs)}
    train_idx = np.array([order[sid] for sid in plan.subjects_in("train")])
    test_idx = np.array([order[sid] for sid in plan.subjects_in("test")])
    labels = np.array([s.label for s in subs])
    pop = train_population_head(embeddings, adjacency, labels, train_idx, seed=seed)
    probs = gcn_classify(embeddings, adjacency, pop.head).data
    metrics = compute_metrics(probs[test_idx, 1], labels[test_idx])
    rows = [ExperimentRow(run_id="popgraph", seed=seed, fold=0, metrics=metrics)]
    write_metrics_csv(args.out, rows)
    print(
        f"population-graph test metrics: ACC {metrics.acc:.3f}, AUC {metrics.auc:.3f}; "
        f"wrote {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--preset", choices=["abide1", "abide2", "adhd200", "custom"], default="custom")
    p.add_argument("--toggles", default="HGNN+HCNN")
    p.add_argument("--encoder", choices=["gcn", "cheb", "res-cheb"], default="res-cheb")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--blocks", type=int, default=3)
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
