"""The scenario benchmark's tracer still fits the package.

`scenbench/tracer.py` hooks public functions by module attribute name and
silently leaves out the metrics of a hook whose target was renamed or
deleted, or whose counters can no longer bind their arguments. This test
makes either a failure: a traced 1 km run and a traced 2-point CLI sweep
must bind every hook and report every per-layer metric `BENCHMARK.json`
declares. And each workload of `scenbench/workloads.py`, which picks its
layouts with the package's own `sample_ppp` and checks every report, must
run clean and repeat its digest. The tests read `scenbench/` and
`BENCHMARK.json` and change neither.
"""

import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import pytest

from frangine import cli, metrics_sim
from frangine.metrics_sim import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent


def _load(stem):
    name = f"scenbench_{stem}"
    spec = importlib.util.spec_from_file_location(name, ROOT / "scenbench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_traced_run_and_sweep_report_every_declared_metric(tmp_path):
    tracing = _load_tracer()
    ini = tmp_path / "sweep.ini"
    ini.write_text("[run]\nmaster_seed = 1\n")
    argv = [
        "sweep", "--config", str(ini), "--out", str(tmp_path / "out"),
        "--param", "k_factor_db", "--grid", "0,6", "--trials", "2000",
    ]
    start = time.perf_counter()
    with tracing.Tracer() as tracer:
        metrics_sim.run_scenario(ScenarioConfig())
        code = cli.main(argv)
    run_s = time.perf_counter() - start
    assert code == cli.EXIT_OK
    assert tracer.missing == []
    assert tracer.broken == []

    metrics = tracer.metrics(run_s)
    declared = {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    # scenbench/run.py adds trace.overhead_s itself, from an untraced run.
    assert declared - set(metrics) == {"trace.overhead_s"}
    for name in declared & set(metrics):
        assert math.isfinite(metrics[name][0]), name


@pytest.mark.parametrize("name", ["city-tree", "dense-ue", "sweep-mc"])
def test_workload_runs_clean_and_repeats_its_digest(tmp_path, name):
    tracing, workloads = _load_tracer(), _load("workloads")
    case = workloads.prepare(workloads.WORKLOADS[name], 1, tmp_path)
    outcomes = []
    for _ in range(2):
        with tracing.Tracer(capture_only=True) as tracer:
            outcomes.append(case.execute(tracer, time.perf_counter))
    for outcome in outcomes:
        assert outcome.problems == [] and outcome.notes == []
        assert outcome.digest is not None
    assert outcomes[0].digest == outcomes[1].digest
