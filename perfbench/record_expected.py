"""Record ``perfbench/expected.json``, the benchmark's known answers.

Run once from the repository root, on a commit whose verdicts are trusted::

    python3 perfbench/record_expected.py

It records

* the fingerprint and verdict of every obligation of the registered case
  studies (from one cold ``verify_batch`` round at seed 0);
* for each explore workload, the verdict and obligations digest of every
  candidate met at the recorded seeds (keyed by program fingerprint, so a
  candidate is checked whatever seed reaches it), and the full candidate
  and Pareto-frontier signature at each recorded seed.

Verdicts and digests do not depend on the Monte Carlo seed; which
candidates a beam search visits, and the frontier, do.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

from run import HERE, RESULTS, Runner, synthesize_inputs  # noqa: E402

#: Monte Carlo seeds whose explore signatures are recorded.
EXPLORE_SEEDS = {"explore-lu-beam": (0, 1, 2, 3), "explore-stencil-diag": (0,)}


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=RESULTS))
    try:
        runner = Runner("verify-cold", 0, work)
        synthesize_inputs(0, runner.inputs)
        batch = runner.run()
        studies = {
            name: {"fingerprints": program["fingerprints"], "statuses": program["statuses"]}
            for name, program in batch["programs"].items()
            if not name.startswith("fuzz-")
        }
        if not all(batch["programs"][name]["verified"] for name in studies):
            print("refusing to record: not every case study verified", file=sys.stderr)
            return 1
        explore = {}
        for workload, seeds in EXPLORE_SEEDS.items():
            candidates, signatures = {}, {}
            for seed in seeds:
                result = Runner(workload, seed, work).run()
                signatures[str(seed)] = result["signature"]
                for candidate in result["candidates"]:
                    answer = [candidate["verified"], candidate["digest"]]
                    if candidates.setdefault(candidate["fingerprint"], answer) != answer:
                        print(f"refusing to record: {candidate['name']} is not "
                              "deterministic across seeds", file=sys.stderr)
                        return 1
            explore[workload] = {"candidates": candidates, "signatures": signatures}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {"verify": {"studies": studies}, "explore": explore}
    (HERE / "expected.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    obligations = sum(len(study["statuses"]) for study in studies.values())
    print(f"recorded {len(studies)} studies ({obligations} obligations) and "
          + ", ".join(f"{w}: {len(e['candidates'])} candidates" for w, e in explore.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
