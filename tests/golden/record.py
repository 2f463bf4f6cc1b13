"""Record the output digest of every golden case in digests.json.

Each `<case>.ini` in this directory is run through `cli.parse_config` and
`run_scenario`; its digest is the sha256 of the CSV bytes of `metrics_row`
and then `ledger_rows`, as `scenbench/workloads.digest` computes it. This
script is the only writer of digests.json:

    PYTHONPATH=src python tests/golden/record.py

A change meant to keep outputs byte-identical must leave digests.json as it
is. A change that alters random streams reruns this script, which prints
every case whose digest moved (old -> new) and the count left unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from frangine.cli import parse_config
from frangine.metrics_sim import ledger_rows, metrics_row, run_scenario

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def case_names() -> list[str]:
    return sorted(path.stem for path in HERE.glob("*.ini"))


def load_case(name: str):
    return parse_config(str(HERE / f"{name}.ini"))


def digest(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(metrics_row(report))
    writer.writerows(ledger_rows(report))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> None:
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {name: digest(run_scenario(load_case(name))) for name in case_names()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    moved = [name for name in digests if old.get(name) != digests[name]]
    for name in moved:
        print(f"moved {name}: {old.get(name, 'new case')} -> {digests[name]}")
    print(f"recorded {len(digests)} digests in {DIGESTS}: {len(moved)} moved, "
          f"{len(digests) - len(moved)} unchanged")


if __name__ == "__main__":
    main()
