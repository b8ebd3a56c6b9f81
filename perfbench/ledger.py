"""The traced round: benchmark-side spans, timers and the self-time ledger.

Nothing under ``src/`` is edited.  Every layer is timed from outside by
replacing a public function at the module attribute its caller actually
resolves (``repro.solver.interface.to_dnf``, not
``repro.solver.normalize.to_dnf``), and every replacement is undone when
the round ends.

Two kinds of instrument are installed:

* spans (``solver.normalize``, ``solver.cooper``, ``solver.dnf``,
  ``diagnose``, ``engine.cache.load``, ``engine.cache.save``) join the
  spans the program already emits, so they nest in one tree;
* timers (``solver.cube``, ``semantics.run``, ``lang.parse``) wrap calls
  that happen thousands of times per round.  They record no span; their
  time is charged to the span that was open when they ran, so the ledger
  still adds up.

The ledger gives each stage (span name, or timer name) its *self* time:
its duration minus the part covered by child spans and timers.  The
root's self time is ``untraced``.  If spans nest properly, the self times
and ``untraced`` sum to the root's wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry

#: (module, attribute, span name): public functions wrapped in a span.
#: ``solver.vector.prefilter`` and ``solver.bounded_search`` are already
#: emitted by the program around ``prefilter_unsat_cubes`` and
#: ``bounded_model_search``, so those two are not wrapped again.
SPAN_WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.solver.interface", "eliminate_compound_terms", "solver.normalize"),
    ("repro.solver.interface", "to_nnf", "solver.normalize"),
    ("repro.solver.interface", "strip_positive_existentials", "solver.normalize"),
    ("repro.solver.interface", "ackermannize", "solver.normalize"),
    ("repro.solver.interface", "eliminate_quantifiers", "solver.cooper"),
    ("repro.solver.interface", "to_dnf", "solver.dnf"),
    # The explorer imports diagnose_report from the package at call time.
    ("repro.diagnostics", "diagnose_report", "diagnose"),
    ("repro.engine.cache:ObligationCache", "load", "engine.cache.load"),
    ("repro.engine.cache:ObligationCache", "save", "engine.cache.save"),
)

#: (module, attribute, timer name): hot calls that get a timer, not a span.
TIMER_WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.solver.lia:CubeSolver", "solve", "solver.cube"),
    ("repro.semantics.interpreter:Interpreter", "run", "semantics.run"),
    ("repro.casestudies.spec", "parse_program", "lang.parse"),
    ("repro.fuzz.generator", "parse_program", "lang.parse"),
    # ensure_source re-parses programs that lost their spans (explore candidates).
    ("repro.lang.source", "parse_program", "lang.parse"),
)


_NO_SPAN = object()


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Instruments:
    """The wrappers of one traced round, bound to one telemetry session.

    Use as a context manager: entering installs the session and every
    wrapper, leaving restores the original attributes and uninstalls the
    session.
    """

    def __init__(self, session: telemetry.TelemetrySession) -> None:
        self.session = session
        #: timer name -> [calls, own seconds]
        self.timers: Dict[str, List[float]] = {}
        #: span id the timer ran under -> {timer name: [calls, own seconds]}
        self.charged: Dict[Optional[int], Dict[str, List[float]]] = {}
        #: one [span id, own seconds of nested timers] frame per running timer
        self._frames: List[list] = [[_NO_SPAN, 0.0]]
        self._restore: List[Tuple[object, str, object]] = []
        self._previous: Optional[telemetry.TelemetrySession] = None

    def _span_wrapper(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with telemetry.span(name):
                return function(*args, **kwargs)

        return wrapper

    def _timer_wrapper(self, name: str, function: Callable) -> Callable:
        session = self.session
        frames = self._frames

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = session.current_span_id()
            first_record = len(session.records)
            frames.append([parent, 0.0])
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = frames.pop()[1]
                # Spans opened inside the call hang directly off ``parent``
                # (a timer is not a span); they are already children there.
                inside = sum(
                    record.duration
                    for record in session.records[first_record:]
                    if record.parent_id == parent
                )
                own = elapsed - nested - inside
                # An enclosing timer subtracts this one only when no span
                # opened in between; otherwise that span's duration covers it.
                if frames[-1][0] == parent:
                    frames[-1][1] += own
                entry = self.timers.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += own
                charged = self.charged.setdefault(parent, {}).setdefault(name, [0, 0.0])
                charged[0] += 1
                charged[1] += own

        return wrapper

    def __enter__(self) -> "Instruments":
        for table, make in (
            (SPAN_WRAPS, self._span_wrapper),
            (TIMER_WRAPS, self._timer_wrapper),
        ):
            for target, attribute, name in table:
                owner = _resolve(target)
                original = owner.__dict__[attribute]
                self._restore.append((owner, attribute, original))
                setattr(owner, attribute, make(name, original))
        self._previous = telemetry.active_session()
        telemetry.install(self.session)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._previous is None:
            telemetry.uninstall()
        else:
            telemetry.install(self._previous)
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)
        return False


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for left, right in sorted(intervals):
        left, right = max(left, cursor), min(right, end)
        if right > left:
            covered += right - left
            cursor = right
    return covered


def build_ledger(instruments: Instruments, root_id: int) -> Dict[str, object]:
    """Self time per stage under the span ``root_id``.

    Returns ``{"root_s", "untraced_s", "stages": {name: {count, total_s,
    self_s}}, "sum_s"}``.  ``total_s`` is inclusive span time (``0`` for
    timers, which have no span); ``sum_s`` is ``untraced_s`` plus every
    stage's self time, which equals ``root_s`` when spans nest properly.
    """
    session = instruments.session
    children = session.span_children()
    root = next(record for record in session.records if record.span_id == root_id)
    stages: Dict[str, Dict[str, float]] = {}
    untraced = 0.0
    stack = [root]
    while stack:
        record = stack.pop()
        kids = children.get(record.span_id, [])
        stack.extend(kids)
        own = record.duration - _covered(
            record.start, record.end, [(kid.start, kid.end) for kid in kids]
        )
        for timer, (calls, seconds) in instruments.charged.get(record.span_id, {}).items():
            own -= seconds
            entry = stages.setdefault(timer, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += calls
            entry["self_s"] += seconds
        if record is root:
            untraced = own
            continue
        entry = stages.setdefault(record.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += record.duration
        entry["self_s"] += own
    return {
        "root_s": root.duration,
        "untraced_s": untraced,
        "stages": stages,
        "sum_s": untraced + sum(entry["self_s"] for entry in stages.values()),
    }


def render_ledger(ledger: Dict[str, object]) -> str:
    """The ledger as a fixed-width table in ``repro trace summarize``'s
    stage vocabulary, plus the self-time column and an ``untraced`` line."""
    stages = sorted(ledger["stages"].items(), key=lambda item: -item[1]["self_s"])
    width = max([len("untraced")] + [len(name) for name, _ in stages])
    lines = [f"{'stage':<{width}}  {'count':>6}  {'total':>9}  {'self':>9}"]
    lines.append("-" * (width + 30))
    for name, entry in stages:
        total = f"{entry['total_s']:>8.3f}s" if entry["total_s"] else f"{'(timer)':>9}"
        lines.append(
            f"{name:<{width}}  {int(entry['count']):>6}  {total}  {entry['self_s']:>8.3f}s"
        )
    lines.append(f"{'untraced':<{width}}  {'':>6}  {'':>9}  {ledger['untraced_s']:>8.3f}s")
    lines.append(
        f"{'root':<{width}}  {'':>6}  {ledger['root_s']:>8.3f}s  {ledger['sum_s']:>8.3f}s"
        "  (self column sums to this)"
    )
    return "\n".join(lines)


def layer_metrics(instruments: Instruments, ledger: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics of one traced round (see the README table)."""
    from repro.engine import is_conclusive
    from repro.solver.lia import Status

    session = instruments.session
    stages = ledger["stages"]
    counters = session.counters

    def own(*names: str) -> float:
        return float(sum(stages[name]["self_s"] for name in names if name in stages))

    def spans(name: str) -> List[telemetry.SpanRecord]:
        return [record for record in session.records if record.name == name]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    strategies = spans("strategy")
    discharges = spans("discharge")
    cubes = session.histograms.get("solver.cubes_per_query")
    cube_count = cubes.total if cubes is not None else 0.0
    settled = counters.get("solver.vector.prefilter.unsat_cubes", 0.0)
    hits = sum(value for key, value in counters.items() if key.startswith("engine.cache.hits."))
    misses = counters.get("engine.cache.misses", 0.0)
    reused = counters.get("engine.incremental.reused", 0.0)
    delta = counters.get("engine.incremental.delta", 0.0)
    first_try = sum(
        1
        for record in discharges
        if record.attributes.get("attempts") == 1 and record.attributes.get("strategy")
    )
    wasted = sum(
        record.duration
        for record in strategies
        if not is_conclusive(record.attributes["kind"], Status(record.attributes["status"]))
    )
    parse = instruments.timers.get("lang.parse", [0, 0.0])
    return {
        "solver.normalize_s": own("solver.normalize"),
        "solver.dnf_s": own("solver.dnf"),
        "solver.prefilter_s": own("solver.vector.prefilter"),
        "solver.cube_s": own("solver.cube"),
        "solver.cubes": cube_count,
        "solver.prefilter.settled": settled,
        "solver.prefilter.settled_rate": ratio(settled, cube_count),
        "engine.portfolio.attempts": float(len(strategies)),
        "engine.portfolio.first_try_rate": ratio(first_try, len(discharges)),
        "engine.portfolio.wasted_s": wasted,
        "solver.cooper_s": own("solver.cooper"),
        "solver.cooper.calls": float(len(spans("solver.cooper"))),
        "diagnostics.diagnose_s": own("diagnose"),
        "hoare.collect_s": own("collect"),
        "engine.fingerprint_s": own("fingerprint"),
        "engine.cache.load_s": own("engine.cache.load"),
        "engine.cache.save_s": own("engine.cache.save"),
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.cache.hit_rate": ratio(hits, hits + misses),
        "engine.dedup.hits": counters.get("engine.dedup.hits", 0.0),
        "engine.incremental.reused": reused,
        "engine.incremental.reuse_rate": ratio(reused, reused + delta),
        "explore.verify_s": own("explore.verify"),
        "explore.score_s": own("explore.score", "score"),
        "explore.enumerate_s": own("explore.enumerate"),
        "explore.candidates": counters.get("explore.candidates", 0.0),
        "semantics.runs": float(instruments.timers.get("semantics.run", [0, 0.0])[0]),
        "semantics.run_s": own("semantics.run"),
        "solver.bounded_search_s": own("solver.bounded_search"),
        "solver.bounded_fallbacks": counters.get("solver.bounded_fallbacks", 0.0),
        "solver.unknown": float(
            sum(1 for record in strategies if record.attributes["status"] == "unknown")
        ),
        "lang.parse_s": parse[1],
        "untraced_s": ledger["untraced_s"],
        "trace.coverage": 1.0 - ratio(ledger["untraced_s"], ledger["root_s"]),
    }
