"""Smoke test of the benchmark harness at a tiny size.

Runs every workload with and without tracing and checks that the result
line names every metric the benchmark declares, with its unit.  The runs
share one worker per tracing mode, so the test spawns two processes.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402  (bench/run.py)
from mmvbench import WORKLOADS, metrics  # noqa: E402
from mmvbench.worker import Worker  # noqa: E402
from mmvbench.workloads import Settings  # noqa: E402


class _Shared:
    """A worker that outlives the runs using it; ``stop`` only reads RSS."""

    def __init__(self, worker):
        self._worker = worker
        self.hello = worker.hello
        self.alive = worker.alive
        self.call = worker.call
        self.maxrss_mb = worker.maxrss_mb

    def stop(self):
        return self._worker.maxrss_mb()


@pytest.fixture(scope="module")
def workers():
    started = {trace: Worker(trace) for trace in (False, True)}
    yield {trace: _Shared(w) for trace, w in started.items()}
    for worker in started.values():
        worker.stop()
        assert not worker.alive()


def test_declared_metrics_match_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(tmp_path, workers, workload, trace):
    record = run.run(workload, seed=0, seconds=0.0, trace=trace,
                     settings=Settings.tiny(), out_dir=str(tmp_path),
                     spawn=lambda t: workers[t])
    line = record["result"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, record["wrong_outputs"]
    assert line["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert (tmp_path / f"{workload}-seed0-trace{int(trace)}.json").exists()
