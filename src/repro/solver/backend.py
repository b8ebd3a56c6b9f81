"""Evaluation-backend selection for the solver's batch-oriented hot paths.

The bounded model search and the Monte Carlo scorer can each run on one of
three interchangeable evaluation backends (the DNF cube loop is pure Python
on all three):

``tree``
    The recursive tree walker (:func:`repro.logic.evaluate.evaluate`),
    checking one assignment at a time.  The slowest path, kept as the
    semantic reference for differential testing.

``compiled``
    The closure compiler (:mod:`repro.logic.compile`) with unit-atom
    pruning and cheap-conjunct-first checking — the default whenever
    numpy is unavailable.

``vector``
    The columnar batch evaluator (:mod:`repro.solver.vector`): candidate
    assignments become an array (one row per assignment, one column per
    symbol) and every linear atom of a formula is decided for the whole
    batch with a handful of numpy operations.  Non-linear/array residue
    falls back to the compiled closures per surviving row.

numpy is an *optional* extra (``pip install .[vec]``); the package's
mandatory dependency list stays empty.  ``auto`` — the default — resolves
to ``vector`` exactly when numpy imports, and to ``compiled`` otherwise,
so installing the extra is the only switch most users ever touch.  The
CLI's ``--backend`` flag calls :func:`set_backend`; worker processes
receive the requested backend on their
:class:`~repro.engine.scheduler.DischargeTask` and apply it themselves,
so the selection survives process-pool fan-out.

The backend changes *how fast* queries are decided, not *what* they
decide: every conclusive answer is produced (or confirmed) by the same
compiled/tree semantics, under the sound-divergence contract documented
in :mod:`repro.solver.models` and :mod:`repro.solver.vector`.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

#: Every accepted ``--backend`` value; ``auto`` resolves at query time.
BACKENDS = ("auto", "tree", "compiled", "vector")

#: The backends ``auto`` can resolve to (what reports may carry).
RESOLVED_BACKENDS = ("tree", "compiled", "vector")

_requested: str = "auto"

# numpy availability is probed once and cached: the hot paths ask on
# every query, and a failed import is expensive.
_numpy_module = None
_numpy_probed = False


class BackendUnavailableError(RuntimeError):
    """Requested a backend whose dependencies are not installed."""


def numpy_available() -> bool:
    """True when numpy imports (probed once per process)."""
    return _numpy() is not None


def _numpy():
    """The numpy module, or ``None`` when the optional extra is absent."""
    global _numpy_module, _numpy_probed
    if not _numpy_probed:
        try:
            import numpy  # noqa: F401 - optional extra, probed lazily

            _numpy_module = numpy
        except ImportError:
            _numpy_module = None
        _numpy_probed = True
    return _numpy_module


def set_backend(name: str) -> None:
    """Select the evaluation backend for this process.

    ``vector`` requires numpy; requesting it without the extra installed
    raises :class:`BackendUnavailableError` immediately (rather than
    surfacing an import error deep inside a solver query).  ``auto``
    never fails — it degrades to ``compiled`` at resolution time.
    """
    global _requested
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})")
    if name == "vector" and not numpy_available():
        raise BackendUnavailableError(
            "the vector backend requires numpy (pip install .[vec]); "
            "use --backend auto to fall back to compiled automatically"
        )
    _requested = name


def requested_backend() -> str:
    """The backend as requested (possibly the unresolved ``auto``)."""
    return _requested


def active_backend() -> str:
    """The backend queries actually run on (``auto`` resolved)."""
    if _requested == "auto":
        return "vector" if numpy_available() else "compiled"
    return _requested


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Temporarily select a backend (tests and benchmarks); ``None`` is a no-op."""
    global _requested
    if name is None:
        yield
        return
    previous = _requested
    set_backend(name)
    try:
        yield
    finally:
        _requested = previous
