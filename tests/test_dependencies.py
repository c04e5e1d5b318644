"""What the package imports: numpy and the standard library only, and no
``numpy.ma`` on a run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hobnet

PACKAGE = Path(hobnet.__file__).parent


def test_the_package_imports_only_numpy_and_the_standard_library():
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside the package
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert outside == []


# fit, evaluation, embedding and the population graph, as ``hobnet popgraph`` runs them
PIPELINE = """
import sys

import numpy as np

from hobnet.ffc import ModelConfig, TrainConfig, fit, prepare_cohort
from hobnet.harness import evaluate_fit, holdout_plan, make_splits, nested_hierarchy, synth_generate
from hobnet.population import (
    build_phenotype_encoder, embed_subjects, gcn_classify, phenotype_similarity_m2,
    population_adjacency, similarity_m1, standardize_phenotypes, train_population_head, weight_matrix,
)

hierarchy = nested_hierarchy(4, 2, 2)
cohort = synth_generate(40, hierarchy)
plan = make_splits(cohort, holdout_plan(seed=0))
train_ids, test_ids = plan.subjects_in("train"), plan.subjects_in("test")
result = fit(cohort, hierarchy, ModelConfig(), TrainConfig(epochs=2, batch_size=8), subject_ids=train_ids)
evaluate_fit(result, cohort, hierarchy, test_ids)
subs = prepare_cohort(cohort, hierarchy, result.gammas)
y = embed_subjects(result.params, result.config, subs)
records = [r.phenotype for r in cohort.subjects]
encoder = build_phenotype_encoder(standardize_phenotypes(records).shape[1], seed=0)
m1, m2, w = similarity_m1(y), phenotype_similarity_m2(records), weight_matrix(records, encoder)
_, adjacency = population_adjacency(m1, m2, w)
labels = np.array([s.label for s in subs])
order = {s.subject_id: i for i, s in enumerate(subs)}
pop = train_population_head(y, adjacency, labels, [order[sid] for sid in train_ids], epochs=5)
gcn_classify(y, adjacency, pop.head)
print("numpy.ma" in sys.modules)
"""


def test_no_run_imports_numpy_ma():
    # np.quantile, np.percentile and np.unique import numpy.ma (about 1.2 MiB
    # resident): why population.linear_quantile and the sorted-set one-hot exist
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", PIPELINE], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["False"]
