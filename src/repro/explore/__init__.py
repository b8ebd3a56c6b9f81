"""The relaxation-space explorer: verified autotuning over relaxed programs.

One original program induces a whole space of relaxed programs (loop
perforation, envelope restriction, dynamic knobs, ... — the mechanisms of
:mod:`repro.relaxations`); the paper's contribution is a way to *prove*
any one of them acceptable.  This subsystem searches the space:

* :mod:`~repro.explore.candidates` — enumerate candidate relaxed programs
  by composing transforms at discovered sites, deduplicated by program
  fingerprint;
* :mod:`~repro.explore.scoring` — seeded Monte Carlo differential
  simulation scoring distortion against estimated savings;
* :mod:`~repro.explore.pareto` — Pareto-frontier selection over the
  accuracy/savings trade-off;
* :mod:`~repro.explore.frontier` — the frontier scheduler: exhaustive
  breadth-first or beam search over generations, ranking parents by score
  plus a learned per-site-kind reward table;
* :mod:`~repro.explore.explorer` — the generational pipeline: expand the
  scheduled parents, gate each generation through one pooled
  obligation-engine batch (statically rejected candidates are never
  executed; the engine's session tier replays already-settled obligations,
  only the delta is discharged), score the survivors, select the
  Pareto frontier, report as table/JSON/CSV.
"""

from .candidates import (
    Candidate,
    CandidateSpace,
    Enumeration,
    enumerate_candidates,
    program_fingerprint,
)
from .explorer import (
    CandidateOutcome,
    ExploreReport,
    explore,
    resolve_case_study,
)
from .frontier import STRATEGIES, FrontierScheduler, RewardTable
from .pareto import dominates, pareto_flags
from .scoring import (
    DEFAULT_POLICIES,
    CandidateScore,
    estimated_savings,
    score_candidate,
)

__all__ = [
    "Candidate",
    "CandidateOutcome",
    "CandidateScore",
    "CandidateSpace",
    "DEFAULT_POLICIES",
    "Enumeration",
    "ExploreReport",
    "FrontierScheduler",
    "RewardTable",
    "STRATEGIES",
    "dominates",
    "enumerate_candidates",
    "estimated_savings",
    "explore",
    "pareto_flags",
    "program_fingerprint",
    "resolve_case_study",
    "score_candidate",
]
