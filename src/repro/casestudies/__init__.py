"""The verified case-study corpus, served through a plugin registry.

The paper's Section 5 studies, hand-written against the builder DSL:

* :class:`~repro.casestudies.swish.SwishDynamicKnobs` — Swish++ dynamic
  knobs (Section 5.1; relational accuracy property across a divergent loop),
* :class:`~repro.casestudies.water.WaterParallelization` — lock-elided
  parallel Water (Section 5.2; integrity assumption preserved under an
  unconstrained array relaxation),
* :class:`~repro.casestudies.lu.LUApproximateMemory` — SciMark2 LU pivot
  selection over approximate memory (Section 5.3; Lipschitz-style accuracy
  bound as a relational loop invariant).

Four further workloads, defined declaratively (a ``.rlx`` source program
plus an acceptability spec, workload generator and metric hooks — see
:mod:`repro.casestudies.spec`):

* ``sum-reduction-perforation`` — a reduction kernel whose relaxed
  execution may drop contributions, with an additive distortion budget,
* ``stencil-approx-memory`` — a three-tap stencil over approximate memory
  with *per-cell* error envelopes and an in-loop per-cell relate,
* ``bnb-early-exit`` — branch-and-bound search whose scan cutoff is a
  dynamic knob (early exit), proved via the diverge rule,
* ``pipeline-two-knobs`` — a two-stage pipeline whose two knobs are
  relaxed *jointly* under a shared drop budget.

Every study registers itself with :mod:`repro.casestudies.registry`
(``@register_case_study``); the CLI, batch verifier, explorer and
benchmarks resolve studies exclusively through :func:`all_case_studies` /
:func:`get_case_study`, and third-party packages can extend the corpus via
the ``repro.case_studies`` entry-point group.  Each study exposes static
verification (``verify``) and dynamic differential simulation
(``simulate``) against its substrate.
"""

from . import base, registry, spec
from .base import CaseStudy, SimulationRecord, SimulationSummary
from .registry import (
    DuplicateCaseStudyError,
    UnknownCaseStudyError,
    all_case_studies,
    case_study_names,
    get_case_study,
    register_case_study,
    unregister_case_study,
)
from .spec import (
    DeclarativeCaseStudy,
    LintFinding,
    LintReport,
    StudyDefinition,
    lint_case_study,
    lint_registry,
)

# Importing the study modules registers them (registration order defines
# the corpus order everywhere: reports, benchmarks, the CLI); the classic
# trio keeps its historical order, the declarative studies follow.
from . import swish, water, lu  # noqa: E402  (classic, hand-written)
from . import sumredux, bnb, stencil, pipeline  # noqa: E402  (declarative)
from .lu import LUApproximateMemory
from .swish import SwishDynamicKnobs
from .water import WaterParallelization

#: Alias kept for the pre-registry API; prefer :func:`get_case_study`.
resolve_case_study = get_case_study


__all__ = [
    "base",
    "registry",
    "spec",
    "lu",
    "swish",
    "water",
    "bnb",
    "pipeline",
    "stencil",
    "sumredux",
    "CaseStudy",
    "SimulationRecord",
    "SimulationSummary",
    "DeclarativeCaseStudy",
    "StudyDefinition",
    "LintFinding",
    "LintReport",
    "DuplicateCaseStudyError",
    "UnknownCaseStudyError",
    "LUApproximateMemory",
    "SwishDynamicKnobs",
    "WaterParallelization",
    "all_case_studies",
    "case_study_names",
    "get_case_study",
    "register_case_study",
    "unregister_case_study",
    "resolve_case_study",
    "lint_case_study",
    "lint_registry",
]
