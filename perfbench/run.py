"""The verifier's benchmark: four workloads, known answers, a self-time ledger.

Run from the repository root::

    python3 perfbench/run.py --workload verify-cold --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload, traced, seed 0

Each round runs in a fresh child process (``perfbench/child.py``), one
after another, with ``jobs=1`` on the default evaluation backend.  Rounds
repeat while another one fits in ``--seconds`` (at least one round).  With
``--trace 0`` the last stdout line is a JSON object carrying the end-to-end
metrics (medians over the untraced rounds); with ``--trace 1`` one extra
traced round follows and the JSON carries the per-layer metrics.

A fixed probe loop runs in this process before the first child and after
every child.  ``setup_s`` and ``wall_s`` are the run's raw medians scaled
by the probe's reference time over its median in the run, so a shared
host's speed drift from run to run cancels out.  The report prints the raw
medians and the probes next to the scaled ones.

Every round's outputs are checked against known answers (``expected.json``
in this directory, and ``tests/corpus/expected/`` at seed 0), and every
work counter must repeat exactly across rounds and across runs of the same
code.  Any violation prints ``"correct": false`` and exits with status 1.
See ``perfbench/README.md`` for the workloads, metrics and their units.
"""

from __future__ import annotations

import argparse
import array
import datetime
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("verify-cold", "verify-warm", "explore-lu-beam", "explore-stencil-diag")
#: Synthetic programs added to the registered studies in the verify workloads.
SYNTHETIC_COUNT = 32
#: Set-up is sampled at least this often per run (extra set-up-only children
#: make up the difference when fewer rounds fit in ``--seconds``).
MIN_SETUPS = 9
#: Hard limit for one child process.
ROUND_TIMEOUT_S = 170
#: A percentile is reported only with at least ten samples beyond it.
PERCENTILE_MIN_SAMPLES = {50: 20, 90: 100}
#: Ledger consistency: stage self times plus untraced time must sum to the
#: traced root's wall time within this share.
LEDGER_TOLERANCE = 0.01
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
#: The host-speed probe: a fixed pure-Python loop of tuple building, dict
#: updates and reads scattered over a 32 MiB array, run in this process before
#: the first child and after every one.  The scattered reads make it feel
#: contention for the memory system as well as for the core, like the
#: verifier's own large heap does.
PROBE_ITERATIONS = 500_000
PROBE_ARRAY_LENGTH = 1 << 22
#: An odd multiplier, so ``index * stride`` modulo the length hops across
#: the array instead of walking it.
PROBE_STRIDE = 40503
#: What the probe takes on the reference host (see README.md).  Times are
#: reported in seconds at that speed: raw median x REFERENCE_PROBE_S / the
#: run's median probe.
REFERENCE_PROBE_S = 0.40
#: Work counters that are exact and must repeat across runs of the same code.
EXACT_LAYER_COUNTS = (
    "solver.cubes",
    "solver.prefilter.settled",
    "engine.portfolio.attempts",
    "engine.incremental.reused",
    "explore.candidates",
    "semantics.runs",
    "solver.cooper.calls",
)


class GateFailure(Exception):
    """A round could not run or produce its result at all."""


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("rate", "coverage", "overhead", "share")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _tree_digest(paths: List[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _source_digest() -> str:
    return _tree_digest(list(Path("src").rglob("*.py")))


def _git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip()


def measured_provenance() -> Dict[str, object]:
    """What is being measured: the code, the host and the toolchain.

    ``source`` (a digest of ``src/``) identifies the code even where no git
    metadata exists; ``commit`` is ``git rev-parse HEAD`` of this checkout
    only when the checkout itself is a git work tree.
    """
    commit = dirty = None
    if Path(".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--", "src", str(HERE.relative_to(Path.cwd())))
        dirty = None if status is None else bool(status)
    return {
        "commit": commit,
        "dirty": dirty,
        "source": _source_digest(),
        "benchmark": _tree_digest(
            [*HERE.glob("*.py"), HERE / "expected.json"]
        ),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


#: Fields that must agree before two measurements may be compared.
IDENTITY = ("source", "benchmark", "backend", "python", "numpy")


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _probe_array() -> "array.array[float]":
    return array.array("d", bytes(8 * PROBE_ARRAY_LENGTH))


def probe_host() -> float:
    """Seconds the fixed probe loop takes now: the shared host's current speed.

    It runs in the driver, never in a child, so no change to the program
    under test can move it.
    """
    data = _probe_array()
    mask = PROBE_ARRAY_LENGTH - 1
    started = time.perf_counter()
    table: Dict[Tuple[int, int], float] = {}
    for index in range(PROBE_ITERATIONS):
        key = (index & 1023, index % 7)
        table[key] = table.get(key, 0.0) + data[(index * PROBE_STRIDE) & mask]
    return time.perf_counter() - started


def synthesize_inputs(seed: int, path: Path) -> List[Dict[str, object]]:
    """The seed's synthetic programs: written for the children, returned
    with their oracle (family, ``expect_verified``) for the checks."""
    from repro.fuzz import ProgramSynthesizer

    generated = ProgramSynthesizer(seed).corpus(SYNTHETIC_COUNT)
    path.write_text(
        json.dumps({"programs": [[item.name, item.source] for item in generated]}),
        encoding="utf-8",
    )
    return [
        {"name": item.name, "family": item.family, "expect_verified": item.expect_verified}
        for item in generated
    ]


class Runner:
    """Spawns the child processes of one workload run."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs.json"
        self._serial = 0
        #: The host probe before the first child and after every child.
        self.probes: List[float] = []

    def run(
        self,
        cache_dir: Optional[Path] = None,
        traced: bool = False,
        setup_only: bool = False,
    ) -> Dict[str, object]:
        self._serial += 1
        request_path = self.work / f"request-{self._serial}.json"
        out_path = self.work / f"result-{self._serial}.json"
        if cache_dir is None:
            cache_dir = self.work / f"cache-{self._serial}"
        request = {
            "workload": self.workload,
            "seed": self.seed,
            "inputs": str(self.inputs),
            "cache_dir": str(cache_dir),
            "traced": traced,
            "setup_only": setup_only,
            "out": str(out_path),
            "trace_file": str(RESULTS / f"{self.workload}-seed{self.seed}.trace.json"),
        }
        request_path.write_text(json.dumps(request), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in ("src", env.get("PYTHONPATH", "")) if part
        )
        if not self.probes:
            self.probes.append(probe_host())
        spawned = time.monotonic()
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(request_path)],
                env=env,
                capture_output=True,
                text=True,
                timeout=ROUND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise GateFailure(f"a {self.workload} round exceeded {ROUND_TIMEOUT_S}s")
        if completed.returncode != 0:
            raise GateFailure(
                f"a {self.workload} round exited with {completed.returncode}:\n"
                + completed.stderr[-2000:]
            )
        self.probes.append(probe_host())
        result = json.loads(out_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["call_start"] - spawned
        result["probe_s"] = self.probes[-1]
        return result


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------


def _canonical_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _tally(groups: Dict[str, List[str]], mismatched: set) -> Tuple[int, int]:
    """(attempted, failed) obligations: a failed obligation ended UNKNOWN
    or belongs to a program whose known answer it contradicts."""
    attempted = failed = 0
    for name, statuses in groups.items():
        attempted += len(statuses)
        failed += len(statuses) if name in mismatched else statuses.count("unknown")
    return attempted, failed


def check_verify(
    result: Dict[str, object],
    expected: Dict[str, object],
    oracle: List[Dict[str, object]],
    seed: int,
) -> Tuple[int, int, List[str]]:
    """(obligations attempted, obligations failed, violations) of one round."""
    from repro.fuzz.funnel import obligations_digest

    programs = result["programs"]
    synthetic = {item["name"] for item in oracle}
    violations: List[str] = []
    mismatched = set()
    for name, got in programs.items():
        if name not in synthetic and not got["verified"]:
            violations.append(f"study {name} did not verify")
            mismatched.add(name)
    for name, known in expected["studies"].items():
        got = programs.get(name)
        if got is None:
            violations.append(f"study {name} missing from the batch report")
        elif [got["fingerprints"], got["statuses"]] != [known["fingerprints"], known["statuses"]]:
            violations.append(f"study {name}: obligations differ from expected.json")
            mismatched.add(name)
    corpus = Path("tests/corpus/expected")
    for item in oracle:
        got = programs[item["name"]]
        if got["verified"] != item["expect_verified"]:
            violations.append(
                f"{item['name']} ({item['family']}): verified={got['verified']}, "
                f"the family's oracle says {item['expect_verified']}"
            )
            mismatched.add(item["name"])
        if seed == 0:
            replayed = _canonical_json(
                {
                    "name": item["name"],
                    "family": item["family"],
                    "expect_verified": item["expect_verified"],
                    "verified": got["verified"],
                    "obligations": len(got["statuses"]),
                    "obligation_fingerprints": got["fingerprints"],
                    "obligation_statuses": got["statuses"],
                    "obligations_digest": obligations_digest(
                        got["fingerprints"], got["statuses"]
                    ),
                }
            )
            committed = (corpus / f"{item['name']}.json").read_text(encoding="utf-8")
            if replayed != committed:
                violations.append(f"{item['name']}: differs from tests/corpus/expected")
                mismatched.add(item["name"])
    groups = {name: got["statuses"] for name, got in programs.items()}
    return (*_tally(groups, mismatched), violations)


def check_explore(
    result: Dict[str, object], expected: Dict[str, object], seed: int
) -> Tuple[int, int, List[str]]:
    """(obligations attempted, obligations failed, violations) of one round."""
    candidates = result["candidates"]
    violations: List[str] = []
    mismatched = set()
    for candidate in candidates:
        if candidate["verified"] and candidate["relate_violations"]:
            violations.append(
                f"{candidate['name']} verified but its relaxed runs broke a relate "
                f"{candidate['relate_violations']} times"
            )
        answer = expected["candidates"].get(candidate["fingerprint"])
        if answer is not None and answer != [candidate["verified"], candidate["digest"]]:
            violations.append(f"{candidate['name']}: verdict or obligations digest differs")
            mismatched.add(candidate["name"])
    signature = expected["signatures"].get(str(seed))
    if signature is not None and result["signature"] != signature:
        violations.append(f"the seed-{seed} candidates or Pareto frontier differ from expected.json")
    groups = {candidate["name"]: candidate["statuses"] for candidate in candidates}
    return (*_tally(groups, mismatched), violations)


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def _percentile(samples: List[float], pct: int) -> float:
    """The pct-th percentile, or 0.0 when fewer than ten samples lie beyond it."""
    if len(samples) < PERCENTILE_MIN_SAMPLES[pct]:
        return 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _stable_output(result: Dict[str, object]) -> object:
    return result["programs"] if "programs" in result else result["signature"]


def measure(workload: str, seed: int, seconds: float, traced: bool, expected_path: Path):
    """Run one workload; returns (report lines, attempted, failed, violations, metrics)."""
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    provenance = measured_provenance()
    lines = [f"== {workload}  seed={seed}  seconds={seconds:g}  trace={int(traced)}"]
    lines.append("provenance: " + json.dumps(provenance, sort_keys=True))
    violations: List[str] = []
    attempted = failed = 0
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS))
    try:
        runner = Runner(workload, seed, work)
        oracle = synthesize_inputs(seed, runner.inputs) if workload.startswith("verify") else []

        def check(result: Dict[str, object]) -> None:
            nonlocal attempted, failed
            if workload.startswith("verify"):
                counted = check_verify(result, expected["verify"], oracle, seed)
            else:
                counted = check_explore(result, expected["explore"][workload], seed)
            attempted += counted[0]
            failed += counted[1]
            violations.extend(counted[2])

        shared_cache = None
        if workload == "verify-warm":
            # One untimed cold round fills the cache every warm round reads.
            shared_cache = work / "warm-cache"
            check(runner.run(cache_dir=shared_cache))
        rounds: List[Dict[str, object]] = []
        deadline = time.monotonic() + seconds
        while True:
            started = time.monotonic()
            rounds.append(runner.run(cache_dir=shared_cache))
            check(rounds[-1])
            # Start another round only if one as long as this one still fits.
            if 2 * time.monotonic() - started > deadline:
                break
        setups = [result["setup_s"] for result in rounds]
        while len(setups) < MIN_SETUPS:
            setups.append(runner.run(setup_only=True)["setup_s"])
        traced_round = runner.run(cache_dir=shared_cache, traced=True) if traced else None
        if traced_round is not None:
            check(traced_round)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = rounds + ([traced_round] if traced_round else [])
    for result in measured:
        if result["provenance"] != rounds[0]["provenance"]:
            violations.append(
                f"a round measured {result['provenance']}, not {rounds[0]['provenance']}"
            )
        if result["counts"] != rounds[0]["counts"]:
            violations.append(
                f"work counters drifted between rounds: {result['counts']} vs {rounds[0]['counts']}"
            )
        if _stable_output(result) != _stable_output(rounds[0]):
            violations.append("the verdicts or the frontier differ between rounds")
    provenance.update(rounds[0]["provenance"])

    lines.append("raw times, with the host probe that followed each round:")
    lines.append(f"{'round':>5}  {'setup_s':>8}  {'wall_s':>8}  {'probe_s':>8}  {'peak_rss_mb':>11}")
    for index, result in enumerate(rounds, 1):
        lines.append(
            f"{index:>5}  {result['setup_s']:>8.3f}  {result['wall_s']:>8.3f}  "
            f"{result['probe_s']:>8.3f}  {result['peak_rss_mb']:>11.1f}"
        )
    probe = statistics.median(runner.probes)
    scale = REFERENCE_PROBE_S / probe
    raw_setup = statistics.median(setups)
    raw_wall = statistics.median([r["wall_s"] for r in rounds])
    lines.append(
        f"raw medians: setup_s {raw_setup:.4f} s, wall_s {raw_wall:.4f} s; median probe "
        f"{probe:.4f} s over {len(runner.probes)}, so times are scaled by "
        f"{REFERENCE_PROBE_S} / {probe:.4f} = {scale:.4f}"
    )
    end_to_end = {
        "setup_s": (scale * raw_setup, len(setups)),
        "wall_s": (scale * raw_wall, len(rounds)),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in rounds]), len(rounds)),
    }
    samples = [s for r in rounds for s in r.get("discharge_samples", [])]
    layers: Dict[str, float] = {}
    if traced_round is not None:
        layers.update(traced_round["layers"])
        layers["trace.overhead"] = traced_round["wall_s"] / raw_wall - 1.0
        ledger = traced_round["ledger"]
        if abs(ledger["sum_s"] - ledger["root_s"]) > LEDGER_TOLERANCE * ledger["root_s"]:
            violations.append(
                f"ledger does not add up: stages + untraced = {ledger['sum_s']:.4f}s, "
                f"root = {ledger['root_s']:.4f}s"
            )
        for name in ("hoare.obligations", "explore.beam_pruned", "diagnostics.reports"):
            layers[name] = float(traced_round["counts"].get(name, 0))
    layers["discharge_p50_ms"] = 1000.0 * _percentile(samples, 50)
    layers["discharge_p90_ms"] = 1000.0 * _percentile(samples, 90)
    layers["discharge.samples"] = float(len(samples))
    layers["failed_share"] = failed / attempted if attempted else 1.0

    lines.append("")
    lines.append(f"{'end-to-end metric':<32}  {'median':>12}  unit   samples")
    for name, unit in END_TO_END:
        value, count = end_to_end[name]
        lines.append(f"{name:<32}  {value:>12.4f}  {unit:<5}  {count}")
    lines.append("")
    lines.append(f"{'per-layer metric':<32}  {'value':>12}  unit")
    for name in sorted(layers):
        lines.append(f"{name:<32}  {layers[name]:>12.6g}  {unit_of(name)}")
    if traced_round is not None:
        from ledger import render_ledger

        lines.append("")
        lines.append("self-time ledger of the traced round:")
        lines.append(render_ledger(traced_round["ledger"]))

    violations.extend(record(workload, seed, provenance, rounds[0]["counts"], layers, traced))
    metrics = (
        {name: {"value": layers[name], "unit": unit_of(name)} for name in sorted(layers)}
        if traced
        else {name: {"value": end_to_end[name][0], "unit": unit} for name, unit in END_TO_END}
    )
    return lines, attempted, failed, violations, metrics


def record(
    workload: str,
    seed: int,
    provenance: Dict[str, object],
    counts: Dict[str, int],
    layers: Dict[str, float],
    traced: bool,
) -> List[str]:
    """Compare this run's work counters with the last run of the same code
    and seed, then store this run's record.

    A record from other code or another backend is never compared: it is
    replaced, stamped with what this run measured.  Nothing is recorded if
    ``src/`` changed while it was being measured.
    """
    if _source_digest() != provenance["source"]:
        return ["src/ changed while it was measured; nothing recorded"]
    path = RESULTS / f"{workload}-seed{seed}.json"
    current = dict(counts)
    if traced:
        current.update({f"layer.{name}": layers[name] for name in EXACT_LAYER_COUNTS})
    violations: List[str] = []
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        same_code = all(
            previous["provenance"].get(key) == provenance.get(key) for key in IDENTITY
        )
        if same_code:
            for name, value in previous["counts"].items():
                if name in current and current[name] != value:
                    violations.append(
                        f"{name} drifted across runs: {value} before, {current[name]} now"
                    )
            current = {**previous["counts"], **current}
    path.write_text(
        json.dumps({"provenance": provenance, "counts": current}, indent=2, sort_keys=True),
        encoding="utf-8",
    )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument(
        "--expected",
        type=Path,
        default=HERE / "expected.json",
        help="known answers to check against (default: expected.json here)",
    )
    args = parser.parse_args(argv)
    if not (Path("src/repro/__init__.py").is_file() and Path("tests/corpus").is_dir()):
        print(
            "run.py must be started from the repository root: src/repro and "
            "tests/corpus are missing here",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, "src")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    violations: List[str] = []
    metrics: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        try:
            lines, w_attempted, w_failed, w_violations, w_metrics = measure(
                workload, args.seed, args.seconds, bool(args.trace), args.expected
            )
        except GateFailure as error:
            lines, w_attempted, w_failed, w_violations, w_metrics = (
                [f"== {workload}"], 1, 1, [str(error)], {}
            )
        print("\n".join(lines))
        for violation in dict.fromkeys(w_violations):
            print(f"VIOLATION [{workload}]: {violation}")
        print(flush=True)
        attempted += w_attempted
        failed += w_failed
        violations.extend(w_violations)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + name: value for name, value in w_metrics.items()})
    correct = not violations and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
