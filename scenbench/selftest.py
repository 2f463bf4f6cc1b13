"""Self-test of the benchmark: work counters repeat exactly.

Runs a small scenario and a small CLI sweep twice each with the same seed,
traced, and checks that every count metric (utility_evals, fading_draws,
distance_calls, select_calls, cache requests/hits/evictions, sinr_elements
and the rest), the span tree and the output digest are identical across the
two runs, so that a change may report a gain in counts. Also checks that
every span nests inside its parent.

    python3 scenbench/selftest.py        # exit code 0 when all checks pass
"""

from __future__ import annotations

import sys
import time

from run import WORK, bootstrap

REQUIRED = ("coordination.utility_evals", "channel.fading_draws",
            "mode_select.distance_calls", "mode_select.select_calls",
            "caching.requests", "caching.hits", "caching.evictions",
            "kernels.sinr_elements")


def span_problems(spans) -> list:
    problems = []
    by_id = {span[1]: span for span in spans}
    for trace_id, span_id, parent, name, start, end in spans:
        if end < start:
            problems.append(f"span {span_id} {name} ends before it starts")
        if parent is None:
            continue
        outer = by_id.get(parent)
        if outer is None or not (outer[4] <= start and end <= outer[5]):
            problems.append(f"span {span_id} {name} is not inside its parent {parent}")
    return problems


def main() -> int:
    bootstrap()
    import tracer as tracing
    import workloads

    small = (
        workloads.Workload(name="selftest-scenario", n_faps=10, n_fues=(45, 55),
                           ini="[caching]\ncooperative_caching = true\n"),
        workloads.Workload(name="selftest-sweep", n_faps=10, n_fues=(45, 55),
                           ini="[geometry]\nregion_width = 1000.0\n",
                           sweep=("--param", "k_factor_db", "--grid", "0,6",
                                  "--trials", "5000")),
    )
    problems = []
    for workload in small:
        case = workloads.prepare(workload, 1, WORK)
        runs = []
        for attempt in (1, 2):
            with tracing.Tracer() as tracer:
                outcome = case.execute(tracer, time.perf_counter)
            problems += [f"{workload.name} run {attempt}: {p}"
                         for p in outcome.problems + span_problems(tracer.spans)]
            counts = {name: value for name, (value, unit) in
                      tracer.metrics(outcome.seconds).items()
                      if unit in (tracing.COUNT, tracing.BYTES)}
            shape = [(s[2], s[3]) for s in tracer.spans]
            runs.append((counts, shape, outcome.digest, tracer.missing))
        (first, shape1, digest1, missing), (second, shape2, digest2, _) = runs
        for name in sorted(set(first) | set(second)):
            if first.get(name) != second.get(name):
                problems.append(f"{workload.name}: {name} was {first.get(name)} "
                                f"then {second.get(name)}")
        if shape1 != shape2:
            problems.append(f"{workload.name}: the span trees differ")
        if digest1 is None or digest1 != digest2:
            problems.append(f"{workload.name}: output digests {digest1} and {digest2}")
        for name in REQUIRED:
            if name not in first:
                print(f"{workload.name}: {name} not reported (hooks missing: "
                      f"{', '.join(missing) or 'none'})")
        print(f"{workload.name}: {len(first)} counters, {len(shape1)} spans, "
              f"digest {digest1}")
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
