"""The benchmark's workloads, and one checked operation of each.

A workload is a scenario config (INI text, as a user of ``frangine`` writes
it) plus a fixed problem size. The benchmark seed picks the layout: the
master seed handed to the program is the first of ``seed * SEARCH + k``,
k = 0, 1, ..., whose F-AP count equals ``n_faps`` and whose F-UE count lies
in ``n_fues``. The counts are taken with the package's own ``sample_ppp``
and ``derive_rng`` on the "fap" and "fue" streams that ``run_scenario``
uses, and checked again on every report. Without this, run time follows
the Poisson node counts (on 2 cores at 2.0 GHz, master seeds 1-8 at 3 km
gave 78 to 111 F-APs and 3.6 to 5.4 s), and the seed, not the code, would
set the measured time.

The program only receives the resulting config.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import traceback
from dataclasses import dataclass
from pathlib import Path

from frangine import ScenarioConfig, cli, metrics_sim
from frangine.geometry import sample_ppp
from frangine.rng import derive_rng

SEARCH = 100_000  # master-seed candidates per benchmark seed

CAPTURED = ("metrics_sim.sweep", "coordination.merge_and_split")

PROBABILITIES = ("cellular_success_probability", "d2d_success_probability",
                 "fue_hit_ratio", "fap_hit_ratio")


@dataclass(frozen=True)
class Workload:
    name: str
    ini: str  # config overrides; every other key keeps its default
    n_faps: int  # F-AP count of every layout (the PPP mean)
    n_fues: tuple  # inclusive F-UE count range (the PPP mean +- 1%)
    sweep: tuple = ()  # CLI `sweep` arguments; empty runs run_scenario


WORKLOADS = {
    w.name: w
    for w in (
        # The ROADMAP scaling case: clustering is about three quarters of
        # the time, with Prim's MST and pairing present; LRU caches miss.
        Workload(
            name="city-tree",
            ini="[geometry]\nregion_width = 3000.0\nregion_height = 3000.0\n",
            n_faps=90,
            n_fues=(445, 455),
        ),
        # Few F-APs, many F-UEs: mode selection (about 10^6 distance calls),
        # D2D pairing and caching do the work; clustering does little. The
        # caches hit (F-AP hit ratio about 0.7), unlike city-tree's.
        Workload(
            name="dense-ue",
            ini=(
                "[geometry]\nregion_width = 2000.0\nregion_height = 2000.0\n"
                "lambda_fap = 3e-6\nlambda_fue = 2.5e-4\n"
                "[mode]\nfap_capacity = 200\n"
                "[caching]\ncatalog_items = 200\nzipf_exponent = 1.0\n"
                "cache_policy = lfu\nfue_cache_capacity = 5\nfap_cache_capacity = 50\n"
                "cooperative_caching = true\n"
                "[traffic]\nrequests_per_fue = 10\n"
            ),
            n_faps=12,
            n_fues=(990, 1010),
        ),
        # The CLI sweep path: channel Monte-Carlo and the kernels dominate.
        # Its 4 points share topology, traffic and clustering, so reusing
        # work across sweep points would show here and nowhere else.
        Workload(
            name="sweep-mc",
            ini="[geometry]\nregion_width = 1000.0\nregion_height = 1000.0\n",
            n_faps=10,
            n_fues=(49, 51),
            sweep=("--param", "k_factor_db", "--grid", "0,3,6,10", "--trials", "100000"),
        ),
    )
}


def conditioned_master_seed(config: ScenarioConfig, workload: Workload, seed: int) -> int:
    region = config.region()
    low, high = workload.n_fues
    for k in range(SEARCH):
        master = seed * SEARCH + k
        faps = sample_ppp(config.lambda_fap, region, derive_rng(master, "fap"))
        if len(faps) != workload.n_faps:
            continue
        fues = sample_ppp(config.lambda_fue, region, derive_rng(master, "fue"))
        if low <= len(fues) <= high:
            return master
    raise RuntimeError(f"{workload.name}: no layout of the stated size for seed {seed}")


@dataclass
class Outcome:
    seconds: float
    digest: str | None  # None when the operation raised
    problems: list
    notes: list


@dataclass
class Case:
    """A workload bound to one benchmark seed, ready to run."""

    workload: Workload
    master_seed: int
    ini_path: Path
    out_dir: Path
    config: ScenarioConfig

    def warm_up(self) -> None:
        """An untimed 1 km scenario: imports, lazy set-up and allocator."""
        metrics_sim.run_scenario(ScenarioConfig(master_seed=self.master_seed))

    def _run(self, tracer) -> list:
        """One operation; [(sweep value or None, report)]. Looked up by
        attribute at call time, so installed hooks see the call."""
        if not self.workload.sweep:
            return [(None, metrics_sim.run_scenario(self.config))]
        argv = ["sweep", "--config", str(self.ini_path), "--out", str(self.out_dir),
                *self.workload.sweep]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"frangine sweep exited with code {code}")
        (points,) = tracer.take("metrics_sim.sweep")
        return list(points)

    def execute(self, tracer, clock) -> Outcome:
        """Run, time and check one operation under `tracer`."""
        for target in CAPTURED:
            tracer.take(target)  # drop what a failed operation left behind
        start = clock()
        try:
            results = self._run(tracer)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            seconds = clock() - start
            traceback.print_exc()
            return Outcome(seconds, None, [f"raised {exc!r}"], [])
        seconds = clock() - start
        partitions = tracer.take("coordination.merge_and_split")
        problems, notes = self.check(results, partitions)
        return Outcome(seconds, digest(results), problems, notes)

    def check(self, results, partitions):
        """Invariants of every report, and whether the layout kept the
        stated size (a note, not a failure: the program is not at fault)."""
        problems, notes = [], []
        for value, report in results:
            where = self.workload.name + ("" if value is None else f" point {value!r}")
            if not report.load.conserved():
                problems.append(f"{where}: payload not conserved")
            for name in PROBABILITIES:
                p = getattr(report, name)
                if not 0.0 <= p <= 1.0:
                    problems.append(f"{where}: {name}={p!r} outside [0, 1]")
            issued = report.n_fues * self.config.requests_per_fue
            if len(report.ledger) != issued:
                problems.append(f"{where}: {len(report.ledger)} ledger rows for "
                                f"{issued} requests")
            low, high = self.workload.n_fues
            if report.n_faps != self.workload.n_faps or not low <= report.n_fues <= high:
                notes.append(f"{where}: layout has {report.n_faps} F-APs and "
                             f"{report.n_fues} F-UEs, not the stated size")
        if partitions is None:
            notes.append("cluster cover not checked: merge_and_split hook missing")
        elif len(partitions) != len(results):
            problems.append(f"{len(partitions)} clusterings for {len(results)} scenarios")
        else:
            for (value, report), partition in zip(results, partitions):
                covered = sorted(i for block in partition.blocks for i in block)
                if covered != list(range(report.n_faps)):
                    problems.append(f"{self.workload.name}: cluster blocks do not cover "
                                    f"each of {report.n_faps} F-APs exactly once")
        return problems, notes


def digest(results) -> str:
    """sha256 of the CSV rows the CLI writes: metrics_row (after the sweep
    value, as in sweep.csv) and then ledger_rows, for each report."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for value, report in results:
        writer.writerow(([] if value is None else [value]) + metrics_sim.metrics_row(report))
        writer.writerows(metrics_sim.ledger_rows(report))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def prepare(workload: Workload, seed: int, workdir: Path) -> Case:
    """Pick the layout for `seed` and write the config the CLI reads."""
    workdir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    ini_path = workdir / f"{stem}.ini"
    ini_path.write_text(workload.ini)
    master = conditioned_master_seed(cli.parse_config(str(ini_path)), workload, seed)
    ini_path.write_text(f"{workload.ini}[run]\nmaster_seed = {master}\n")
    out_dir = workdir / f"{stem}-out"
    out_dir.mkdir(exist_ok=True)
    return Case(workload, master, ini_path, out_dir, cli.parse_config(str(ini_path)))
