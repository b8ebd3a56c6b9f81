"""Check that the benchmark's gates can fail.

Run from the repository root::

    python3 perfbench/check_gate.py

Each case plants one wrong expectation and requires ``run.py`` to exit
with status 1 and print ``"correct": false``:

* a case-study obligation whose expected verdict is flipped;
* an explorer candidate whose expected verdict is flipped;
* a stored work counter that is off by one for the same code and seed.

Exits 0 when every planted fault is caught.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
#: A seed no other run of this script's workloads records under.
SEED = 97


def run(workload: str, expected: Path) -> bool:
    """True when the run was refused (exit 1 and ``correct: false``)."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", "0",
            "--expected", str(expected),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    verdict = json.loads(completed.stdout.strip().splitlines()[-1])
    refused = completed.returncode == 1 and verdict["correct"] is False
    print(f"  exit {completed.returncode}, correct={verdict['correct']}")
    for line in completed.stdout.splitlines():
        if line.startswith("VIOLATION"):
            print("  " + line)
    return refused


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    original = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    planted_path = RESULTS / "planted-expected.json"
    caught = []

    planted = json.loads(json.dumps(original))
    study = sorted(planted["verify"]["studies"])[0]
    planted["verify"]["studies"][study]["statuses"][0] = "invalid"
    planted_path.write_text(json.dumps(planted), encoding="utf-8")
    print(f"planted: {study} obligation 0 expected invalid")
    caught.append(run("verify-warm", planted_path))

    planted = json.loads(json.dumps(original))
    known = planted["explore"]["explore-lu-beam"]["candidates"]
    key = sorted(known)[0]
    known[key][0] = not known[key][0]
    planted_path.write_text(json.dumps(planted), encoding="utf-8")
    print(f"planted: explore-lu-beam candidate {key} verdict flipped")
    caught.append(run("explore-lu-beam", planted_path))

    expected = HERE / "expected.json"
    record = RESULTS / f"verify-warm-seed{SEED}.json"
    record.unlink(missing_ok=True)
    print("clean run to store the work counters")
    clean = not run("verify-warm", expected)
    stored = json.loads(record.read_text(encoding="utf-8"))
    stored["counts"]["solver.cubes"] += 1
    record.write_text(json.dumps(stored), encoding="utf-8")
    print("planted: stored solver.cubes off by one")
    caught.append(run("verify-warm", expected))
    record.unlink(missing_ok=True)
    planted_path.unlink(missing_ok=True)

    ok = clean and all(caught)
    print("every planted fault was caught" if ok else "A PLANTED FAULT WAS NOT CAUGHT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
