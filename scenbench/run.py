"""Scenario benchmark for frangine: end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 scenbench/run.py                     # every workload, untraced then traced
    python3 scenbench/run.py --workload city-tree --seed 3 --seconds 30 --trace 0

One workload runs in one process: no extra threads or processes while it is
timed, frangine imported from this checkout's ``src/``, FRANGINE_BACKEND and
FRANGINE_THREADS unset (so the numpy backend is what is measured) and BLAS
held to one thread.

--trace 0 prints the end-to-end metrics: ``run_s``, the median wall time of
one workload run after an untimed warm-up scenario, over the runs that fit in
--seconds; ``setup_s``, the median time for a fresh interpreter to import
frangine and build the config (``frangine validate``), which every CLI
invocation pays, sampled once after each run; ``peak_rss_mb``, the peak
resident memory of this process.

--trace 1 times untraced runs for half of --seconds, then makes one run with
the hooks of ``tracer.py`` installed and prints the per-layer metrics, with
``trace.overhead_s`` = traced run_s - untraced run_s. Spans are written to
``.bench_work/``.

Every run is checked (see ``workloads.Case.check``); a run that raises or
breaks an invariant, or whose output digest differs from the first run's,
counts as failed. The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent
SETUP_MIN = 5  # set-up samples when few runs fit in --seconds
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Import frangine from this checkout only, on the numpy backend, with
    single-threaded BLAS. Must run before numpy is imported."""
    if not (SRC / "frangine" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'frangine'} not found; run from a frangine checkout")
    for name in ("FRANGINE_BACKEND", "FRANGINE_THREADS"):
        os.environ.pop(name, None)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import frangine

    if Path(frangine.__file__).resolve().parent != (SRC / "frangine").resolve():
        sys.exit(f"error: imported frangine from {frangine.__file__}, not {SRC}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def setup_sampler(case):
    """A function timing one fresh `frangine validate --config` interpreter,
    in wall seconds. The first call is made here, untimed: it may write
    bytecode caches."""
    code = "import sys; from frangine.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "validate", "--config", str(case.ini_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def sample() -> float:
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"frangine validate exited {done.returncode}: {done.stderr}")
        return seconds

    sample()
    return sample


def recorded_digest(name: str, seed: int):
    baseline = json.loads((BENCH / "baseline.json").read_text())
    return baseline["workloads"][name]["digest_by_seed"].get(str(seed))


class Tally:
    """Operations attempted and failed, and the output digest they share."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.notes = set()

    def add(self, outcome, label: str) -> None:
        self.attempted += 1
        problems = list(outcome.problems)
        if outcome.digest is not None:
            if self.digest is None:
                self.digest = outcome.digest
            elif outcome.digest != self.digest:
                problems.append(f"output digest {outcome.digest[:16]} differs from "
                                f"the first run's {self.digest[:16]}")
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}")
        self.notes.update(outcome.notes)


def timed_runs(case, seconds: float, tally: Tally, tracer_cls, setup=None):
    """Untraced runs until `seconds` have passed (at least one). With a
    `setup` sampler, one set-up sample follows each run, outside its timing,
    so that set-up and run times are sampled over the same stretch of time
    (the host's speed drifts over tens of seconds)."""
    samples, setup_samples = [], []
    with tracer_cls(capture_only=True) as tracer:
        deadline = time.perf_counter() + seconds
        while True:
            outcome = case.execute(tracer, time.perf_counter)
            tally.add(outcome, f"run {len(samples) + 1}")
            samples.append(outcome.seconds)
            if setup is not None:
                setup_samples.append(setup())
            if time.perf_counter() >= deadline:
                break
    while setup is not None and len(setup_samples) < SETUP_MIN:
        setup_samples.append(setup())
    return samples, setup_samples


def single(args) -> int:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    case = workloads.prepare(workload, args.seed, WORK)
    print(f"workload {workload.name}  seed {args.seed}  master_seed {case.master_seed}"
          f"  trace {args.trace}")
    sampler = None if args.trace else setup_sampler(case)
    case.warm_up()
    tally = Tally()
    window = args.seconds / 2 if args.trace else args.seconds
    samples, setup = timed_runs(case, window, tally, tracing.Tracer, sampler)
    run_s = statistics.median(samples)
    q1, q3 = quartiles(samples)
    print(f"  run_s        median {run_s:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
          f"min {min(samples):.4f}  max {max(samples):.4f}  n={len(samples)}")
    print("  samples      " + " ".join(f"{x:.3f}" for x in samples))
    metrics = {}
    if args.trace:
        with tracing.Tracer(trace_id=tally.attempted) as tracer:
            outcome = case.execute(tracer, time.perf_counter)
        tally.add(outcome, "traced run")
        layer = tracer.metrics(outcome.seconds)
        layer["trace.overhead_s"] = (outcome.seconds - run_s, "s")
        spans_path = WORK / f"{workload.name}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        print(f"  traced run   {outcome.seconds:.4f} s, {layer['trace.spans'][0]} spans "
              f"in {spans_path.relative_to(ROOT)}")
        if tracer.missing:
            print(f"  hooks missing (metrics left out): {', '.join(tracer.missing)}")
        if tracer.broken:
            print(f"  counters dropped (signature changed): {', '.join(sorted(set(tracer.broken)))}")
        for name, (value, unit) in sorted(layer.items()):
            print(f"  {name:<32} {value:>16.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        setup_s = statistics.median(setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  setup_s      median {setup_s:.4f} s  min {min(setup):.4f}  "
              f"max {max(setup):.4f}  n={len(setup)}")
        print(f"  peak_rss_mb  {peak_rss_mb:.1f} MiB")
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    for note in sorted(tally.notes):
        print(f"  note: {note}")
    recorded = recorded_digest(workload.name, args.seed)
    verdict = ("no digest recorded for this seed" if recorded is None
               else "matches the recorded digest" if recorded == tally.digest
               else f"differs from the recorded {recorded[:16]} (information only)")
    print(f"  digest       {tally.digest}  {verdict}")
    print(f"  operations   attempted {tally.attempted}  failed {tally.failed}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def every_workload(args, names) -> int:
    """Each workload in a process of its own, untraced and then traced."""
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
                lines = []
                for line in child.stdout:
                    print(line, end="", flush=True)
                    lines.append(line)
            if child.returncode != 0 or not lines:
                correct = False
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            combined.update({f"{name}.{key}": m for key, m in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one benchmark run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    bootstrap()
    import workloads

    if args.workload == "all":
        return every_workload(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from all, {', '.join(workloads.WORKLOADS)}")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
