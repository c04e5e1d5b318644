"""hobnet benchmark: end-to-end metrics from untraced runs, per-layer from traced ones.

    python3 bench/run.py --workload acc-train --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

One workload runs in this process, which pins BLAS and OpenMP to one thread
before numpy is imported. ``--workload all`` runs every workload in turn,
each in a fresh child process, because peak RSS is a lifetime high-water
mark. An untraced run repeats the workload's pass until ``--seconds`` is
spent, sets up again after every pass (each set-up with an import in a fresh
interpreter), and reports medians over passes and over set-ups. A traced run
makes one untraced and one traced pass and fails if their outputs differ in
any bit. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics that BENCHMARK.json
declares for the mode. See bench/README.md for the workloads and metrics.
"""

import os

THREAD_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # two passes at least, so that repeatability is checked
CHILD_TIMEOUT_S = 900
IMPORT_TIMEOUT_S = 120
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import numpy, hobnet.harness, hobnet.population; "
    "print(time.perf_counter() - start)"
)

UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "1",
    "train_subjects_per_s": "1/s",
    "prepare_subjects_per_s": "1/s",
    "infer_subjects_per_s": "1/s",
    "popgraph_s": "s",
    "test_auc": "1",
    "pop_test_auc": "1",
    "final_train_loss": "1",
}


def import_program() -> float:
    """Import numpy and hobnet from this checkout; return the seconds it took."""
    if not (ROOT / "src" / "hobnet" / "__init__.py").is_file():
        sys.exit(f"bench: no hobnet sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import hobnet.harness  # noqa: F401
    import hobnet.population  # noqa: F401

    return time.perf_counter() - start


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import numpy and this checkout's hobnet."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        stdout=subprocess.PIPE,
        text=True,
        timeout=IMPORT_TIMEOUT_S,
        check=True,
    )
    return float(child.stdout.split()[-1])


def declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def steal_ticks() -> int | None:
    """Host-wide steal ticks from /proc/stat (read only); None where absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as exc:  # numpy before 1.26 has no dict form
        blas = f"unknown ({type(exc).__name__})"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ[name] for name in THREAD_ENV},
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def pass_failures(workload, run) -> int:
    """Operations of one pass that failed: the failing stage and all after it."""
    return len(workload.stages) - run.stages_run + 1 if run.failed else 0


def measure(workload, seed: int, seconds: float, first_import_s: float) -> tuple[int, int, dict]:
    from workloads import same_outputs

    # One set-up before the first pass and one after every pass, each with an
    # import in a fresh interpreter: spread over the run like the passes, the
    # samples see the same mix of the host's fast and slow stretches.
    import_s, setup_s = [], []

    def set_up():
        import_s.append(child_import_s())
        start = time.perf_counter()
        inputs = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)
        return inputs

    inputs = set_up()
    cpu0, steal0 = time.process_time(), steal_ticks()
    passes, walls = [], []
    started = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(workload.run(inputs))
        walls.append(time.perf_counter() - start)
        set_up()
        spent = time.perf_counter() - started
        if passes[-1].failed:
            break
        if len(passes) >= MIN_PASSES and spent + statistics.median(walls) > seconds:
            break
    cpu_s = time.process_time() - cpu0
    steal1 = steal_ticks()

    attempted = len(passes) * len(workload.stages) + 1
    failed = sum(pass_failures(workload, p) for p in passes)
    good = [p for p in passes if not p.failed]
    for p in passes:
        if p.failed:
            print(f"FAILED {workload.name}: {p.failed}")
    differ = sorted({k for p in good[1:] for k in same_outputs(good[0].outputs, p.outputs)})
    if len(good) < 2 or differ:
        failed += 1
        print(f"FAILED {workload.name}: repeat passes differ in {differ or 'nothing to compare'}")
    if not good:
        sys.exit(f"bench: no pass of {workload.name} completed")

    values = {
        "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        "pipeline_s": statistics.median(p.pipeline_s for p in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    }
    for name in good[0].metrics:
        values[name] = statistics.median(p.metrics[name] for p in good)
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}

    record = {
        "passes": len(passes),
        "measured_s": round(time.perf_counter() - started, 3),
        "cpu_s": round(cpu_s, 3),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "pass_pipeline_s": [round(p.pipeline_s, 4) for p in good],
        "first_import_s": round(first_import_s, 4),
        "import_s": [round(s, 4) for s in import_s],
        "setup_repeats_s": [round(s, 4) for s in setup_s],
    }
    print("run " + json.dumps(record))
    for stage in workload.stages:
        times = [p.stage_s[stage] for p in good]
        print(f"stage {stage:<10} median {statistics.median(times):9.4f} s, min {min(times):9.4f} s")
    for name, value in good[0].counts.items():
        print(f"count {name:<40} {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:<24} {value:.6g} {unit}")
    return attempted, failed, metrics


def measure_traced(workload, seed: int) -> tuple[int, int, dict]:
    from tracing import Tracer
    from workloads import same_outputs

    plain = workload.run(workload.setup(seed))
    with Tracer() as tracer:
        traced = workload.run(workload.setup(seed), tracer)
    attempted = 2 * len(workload.stages) + 1
    failed = pass_failures(workload, plain) + pass_failures(workload, traced)
    for p in (plain, traced):
        if p.failed:
            print(f"FAILED {workload.name}: {p.failed}")
    if plain.failed or traced.failed:
        sys.exit(f"bench: a pass of {workload.name} failed; no trace to report")
    differ = same_outputs(plain.outputs, traced.outputs)
    if differ:
        failed += 1
        print(f"FAILED {workload.name}: traced outputs differ from untraced in {differ}")

    metrics = tracer.metrics()
    for name, value in traced.counts.items():
        metrics[name] = (value, "B" if name.endswith("_bytes") else "count")
    metrics["trace.overhead_s"] = (traced.pipeline_s - plain.pipeline_s, "s")
    print(f"trace untraced pipeline {plain.pipeline_s:.4f} s, traced {traced.pipeline_s:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"layer {name:<44} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    return attempted, failed, metrics


def run_one(args) -> int:
    import_s = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    print(f"bench {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment()))
    if args.trace:
        attempted, failed, metrics = measure_traced(workload, args.seed)
    else:
        attempted, failed, metrics = measure(workload, args.seed, args.seconds, import_s)
    wanted = declared(bool(args.trace))
    wrong = sorted(name for name, unit in wanted.items() if metrics.get(name, (0, None))[1] != unit)
    if wrong:
        sys.exit(f"bench: metrics {wrong} are missing or differ in unit from BENCHMARK.json")
    print(result_line(failed == 0, attempted, failed, {name: metrics[name] for name in wanted}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    import_program()
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines), flush=True)
        if child.returncode != 0:
            sys.exit(f"bench: workload {name} exited with code {child.returncode}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": (v["value"], v["unit"]) for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1, help="cohort seed")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
