"""The obligation engine: cached, parallel, portfolio-scheduled discharge.

This subsystem sits between the Hoare layer (which generates proof
obligations) and the solver stack (which decides individual queries):

* :mod:`~repro.engine.fingerprint` — canonical obligation fingerprinting
  (alpha-renaming to de Bruijn indices, conjunct sorting, symmetric-atom
  orientation) hashed into stable cache keys;
* :mod:`~repro.engine.cache` — the one verdict store: a session tier of
  every verdict the engine settled (``UNKNOWN`` included, replayed in later
  waves, never saved) over a persistent tier — an in-memory LRU of
  conclusive verdicts with an optional JSON store (``UNKNOWN`` is never
  written there);
* :mod:`~repro.engine.portfolio` — named solver configurations raced in
  sequence per obligation, with a win table that reorders future attempts;
* :mod:`~repro.engine.scheduler` — parallel discharge over a
  ``ProcessPoolExecutor`` with per-obligation budgets;
* :mod:`~repro.engine.core` — :class:`ObligationEngine`, the facade tying
  the pieces together behind ``discharge_all`` / ``discharge_collected``:
  one discharge path for every entry point (a single case study, a batch,
  an explorer generation), so every verdict is fingerprinted, deduplicated,
  stored and decided by the portfolio (generational searches re-discharge
  near-identical waves through one engine and pay only for the obligations
  its session has not settled);
* :mod:`~repro.engine.batch` — multi-program batch verification
  (``repro verify-batch``) pooling every program's obligations into one
  discharge wave and emitting a structured report.
"""

from .cache import CachedVerdict, ObligationCache
from .core import EngineStatistics, ObligationEngine
from .fingerprint import canonical_form, fingerprint
from .portfolio import (
    DEFAULT_STRATEGIES,
    Portfolio,
    SolverStrategy,
    is_conclusive,
    run_portfolio,
)
from .scheduler import DischargeOutcome, DischargeScheduler, DischargeTask
from .batch import (
    BatchItem,
    BatchProgramResult,
    BatchReport,
    case_study_items,
    directory_items,
    program_items,
    verify_batch,
)

__all__ = [
    "BatchItem",
    "BatchProgramResult",
    "BatchReport",
    "CachedVerdict",
    "DEFAULT_STRATEGIES",
    "DischargeOutcome",
    "DischargeScheduler",
    "DischargeTask",
    "EngineStatistics",
    "ObligationCache",
    "ObligationEngine",
    "Portfolio",
    "SolverStrategy",
    "canonical_form",
    "case_study_items",
    "directory_items",
    "fingerprint",
    "is_conclusive",
    "program_items",
    "run_portfolio",
    "verify_batch",
]
