"""Record the output digest of every golden case in digests.json.

Each `<case>.ini` in this directory is run through `cli.parse_config` and
`run_scenario`. Its record holds two digests: "metrics", the sha256 of the
CSV bytes of its `metrics_row`, and "ledger", the sha256 of the CSV bytes
of its `ledger_rows`. Kept apart, they show whether a change moved the
per-request ledger or only the metrics. This script is the only writer of
digests.json:

    PYTHONPATH=src python tests/golden/record.py

A change meant to keep outputs byte-identical must leave digests.json as it
is. A change that alters outputs reruns this script, which prints every
digest that moved (old -> new) and the count of cases left unchanged.
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


def _sha256_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def digest(report) -> dict:
    """{"metrics": sha256 of the metrics row, "ledger": sha256 of the ledger}."""
    return {
        "metrics": _sha256_csv([metrics_row(report)]),
        "ledger": _sha256_csv(ledger_rows(report)),
    }


def main() -> None:
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {name: digest(run_scenario(load_case(name))) for name in case_names()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    counts = []
    for part in ("metrics", "ledger"):
        moved = 0
        for name, new in digests.items():
            before = old.get(name, {}).get(part)
            if before != new[part]:
                print(f"moved {name} {part}: {before or 'new'} -> {new[part]}")
                moved += 1
        counts.append(f"{part} {moved} moved, {len(digests) - moved} unchanged")
    print(f"recorded {len(digests)} cases in {DIGESTS}: {'; '.join(counts)}")


if __name__ == "__main__":
    main()
