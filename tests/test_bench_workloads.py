"""Each benchmark workload runs one pass on the package without failing.

Only ``bench/run.py`` runs ``bench/workloads.py``, so a change to a function
or signature the workloads call would otherwise break the benchmark without
failing a test. A pass fails when a stage raises or one of its output checks
fails.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_workload_pass_succeeds_at_cohort_seed_1(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    failed = {name: w.run(w.setup(1)).failed for name, w in WORKLOADS.items()}
    assert failed == {name: None for name in WORKLOADS}
