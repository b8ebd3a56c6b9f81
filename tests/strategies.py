"""Shared hypothesis strategies for program- and formula-level properties.

One home for the generators that used to be duplicated (and drift) across
``test_relaxations_properties.py`` and ``test_formula_core_properties.py``,
also consumed by the fuzz synthesizer's own property suite:

* **program side** — ``base_programs`` (the summation-shaped program every
  relaxation transform applies to), ``transform_applications`` (one
  arbitrary transform with arbitrary small parameters), and
  ``flatten_stmt`` (AST equality modulo ``Seq`` association);
* **formula side** — ``terms`` / ``atoms`` / ``formulas`` (with
  quantifiers) / ``array_formulas`` over a tiny name pool and finite
  evaluation ``DOMAIN``, plus the reference recursions ``ref_free`` /
  ``ref_size`` / ``ref_linear`` the cached structural queries and the
  memoised linearisation are pinned against;
* **cube side** — ``cube_atoms`` / ``cubes``: small conjunctions of
  linear literals with small coefficients, the cube solver's input.
"""

from hypothesis import strategies as st

from repro.lang import builder as b
from repro.lang.ast import Assign, If, Seq, While
from repro.logic import formula as F
from repro.logic.evaluate import Valuation
from repro.logic.formula import Const, Exists, Forall, Select, SymTerm, var, sym
from repro.logic.traverse import node_children
from repro.relaxations.transforms import (
    approximate_memoization,
    approximate_reads,
    dynamic_knob,
    eliminate_synchronization,
    perforate_loop,
    restrict_relax,
    sample_reduction,
    skip_tasks,
)

# ---------------------------------------------------------------------------
# Program side
# ---------------------------------------------------------------------------

counters = st.sampled_from(["i", "k"])
bounds = st.integers(min_value=1, max_value=9)


@st.composite
def base_programs(draw):
    """A summation-style program plus the handles transforms need.

    Returns ``(program, loop, read, compute, counter)`` — the loop, array
    read and computation statements are the anchor points the individual
    transforms attach to.
    """
    counter = draw(counters)
    extra = draw(st.integers(min_value=0, max_value=3))
    use_branch = draw(st.booleans())
    body = [b.assign("s", b.add("s", counter))]
    if use_branch:
        body.append(
            b.if_(
                b.gt("s", extra),
                b.block(b.assign("t", "s"), b.assign("s", b.sub("s", 1))),
            )
        )
    body.append(b.assign(counter, b.add(counter, 1)))
    loop = While(
        condition=b.lt(counter, "n"),
        body=b.block(*body),
        invariant=b.true,
    )
    read = Assign("v", b.aread("A", counter))
    compute = Assign("r", b.mul("arg", 2))
    program = b.program(
        f"gen-{counter}-{extra}",
        b.assign("s", 0),
        b.assign("t", 0),
        b.assign(counter, 0),
        loop,
        read,
        compute,
        variables=(
            "s", "t", counter, "n", "v", "e", "r", "arg",
            "cached_arg", "cached_r", "tasks", "samples", "population",
        ),
        arrays=("A", "RS"),
    )
    return program, loop, read, compute, counter


@st.composite
def transform_applications(draw):
    """Apply one arbitrary transform with arbitrary small parameters."""
    program, loop, read, compute, counter = draw(base_programs())
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return perforate_loop(
            program, loop, counter=counter,
            max_stride=draw(st.integers(min_value=2, max_value=6)),
        )
    if choice == 1:
        return dynamic_knob(
            program, knob="n", floor=draw(st.integers(min_value=0, max_value=5))
        )
    if choice == 2:
        return skip_tasks(
            program, remaining_tasks_var="tasks",
            max_skipped=draw(st.integers(min_value=1, max_value=5)),
        )
    if choice == 3:
        return sample_reduction(
            program,
            sample_count_var="samples",
            population_var="population",
            minimum_fraction_percent=draw(st.integers(min_value=1, max_value=100)),
        )
    if choice == 4:
        return approximate_reads(
            program, value_var="v", error_bound_var="e", insert_after=read
        )
    if choice == 5:
        return approximate_memoization(
            program,
            result_var="r",
            argument_var="arg",
            cached_argument_var="cached_arg",
            cached_result_var="cached_r",
            argument_tolerance=draw(st.integers(min_value=0, max_value=4)),
            result_tolerance=draw(st.integers(min_value=0, max_value=4)),
            insert_after=compute,
        )
    if choice == 6:
        return eliminate_synchronization(program, racy_arrays=("RS",))
    # restrict an inserted relax: first insert one, then strengthen it.
    knobbed = dynamic_knob(program, knob="n", floor=2)
    delta = draw(st.integers(min_value=0, max_value=3))
    return restrict_relax(
        knobbed.program,
        knobbed.inserted_relax[0],
        b.and_(
            b.le(b.sub("original_n", delta), "n"),
            b.le("n", b.add("original_n", delta)),
        ),
    )


def flatten_stmt(stmt):
    """Flatten nested sequences: round-trip equality holds modulo the
    (semantically irrelevant) association of ``Seq``."""
    if isinstance(stmt, Seq):
        return flatten_stmt(stmt.first) + flatten_stmt(stmt.second)
    if isinstance(stmt, If):
        return [
            (
                "if",
                stmt.condition,
                tuple(flatten_stmt(stmt.then_branch)),
                tuple(flatten_stmt(stmt.else_branch)),
            )
        ]
    if isinstance(stmt, While):
        return [
            (
                "while",
                stmt.condition,
                stmt.invariant,
                stmt.rel_invariant,
                tuple(flatten_stmt(stmt.body)),
            )
        ]
    return [stmt]


# ---------------------------------------------------------------------------
# Formula side
# ---------------------------------------------------------------------------

NAMES = ["x", "y", "z"]
names = st.sampled_from(NAMES)
small_ints = st.integers(min_value=-4, max_value=4)
DOMAIN = range(-3, 4)


@st.composite
def terms(draw, depth=1):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return var(draw(names))
        return Const(draw(small_ints))
    op = draw(st.sampled_from([F.Add, F.Sub, F.Mul, F.Min, F.Max]))
    return op(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))


@st.composite
def atoms(draw):
    rel = draw(st.sampled_from([F.lt, F.le, F.gt, F.ge, F.eq, F.ne]))
    return rel(draw(terms()), draw(terms()))


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(atoms())
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice == 0:
        return draw(atoms())
    if choice == 1:
        return F.neg(draw(formulas(depth=depth - 1)))
    if choice == 2:
        return F.conj(
            draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))
        )
    if choice == 3:
        return F.disj(
            draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))
        )
    quantifier = Exists if draw(st.booleans()) else Forall
    return quantifier(sym(draw(names)), draw(formulas(depth=depth - 1)))


@st.composite
def array_formulas(draw, depth=1):
    """Formulas whose atoms read ``A`` at simple indices."""
    index = (
        var(draw(names)) if draw(st.booleans()) else Const(draw(st.integers(-2, 2)))
    )
    read = Select(sym("A"), index)
    rel = draw(st.sampled_from([F.lt, F.le, F.eq, F.ge]))
    atom = rel(read, draw(terms()))
    if depth == 0:
        return atom
    choice = draw(st.integers(min_value=0, max_value=2))
    if choice == 0:
        return atom
    if choice == 1:
        return F.conj(atom, draw(array_formulas(depth=depth - 1)))
    return F.disj(F.neg(atom), draw(array_formulas(depth=depth - 1)))


def full_valuation(draw):
    """A valuation over the whole name pool (for ``st.data()`` draws)."""
    return Valuation(scalars={sym(name): draw(small_ints) for name in NAMES})


# -- reference recursions the cached structural queries are pinned against ---


def ref_free(node, bound=frozenset()):
    if isinstance(node, Const) or isinstance(node, (F.TrueF, F.FalseF)):
        return frozenset()
    if isinstance(node, SymTerm):
        return frozenset() if node.symbol in bound else frozenset({node.symbol})
    if isinstance(node, (Exists, Forall)):
        return ref_free(node.body, bound | {node.symbol})
    result = frozenset()
    for child in node_children(node):
        result |= ref_free(child, bound)
    return result


def ref_size(node):
    return 1 + sum(ref_size(child) for child in node_children(node))


def ref_linear(term):
    """``(coefficients, constant)`` of a linear term, or ``None`` when the
    term is not linear (a product of two non-constants, or min/max/...)."""
    if isinstance(term, Const):
        return {}, term.value
    if isinstance(term, SymTerm):
        return {term.symbol: 1}, 0
    if not isinstance(term, (F.Add, F.Sub, F.Mul)):
        return None
    left, right = ref_linear(term.left), ref_linear(term.right)
    if left is None or right is None:
        return None
    (lc, lk), (rc, rk) = left, right
    if isinstance(term, F.Mul):
        if lc and rc:
            return None
        coeffs, constant, factor = (rc, rk, lk) if not lc else (lc, lk, rk)
        scaled = {s: c * factor for s, c in coeffs.items()}
        return {s: c for s, c in scaled.items() if c}, constant * factor
    sign = 1 if isinstance(term, F.Add) else -1
    coeffs = dict(lc)
    for s, c in rc.items():
        coeffs[s] = coeffs.get(s, 0) + sign * c
    return {s: c for s, c in coeffs.items() if c}, lk + sign * rk


# ---------------------------------------------------------------------------
# Cube side
# ---------------------------------------------------------------------------

cube_coefficients = st.integers(min_value=-3, max_value=3)


@st.composite
def cube_atoms(draw):
    """``c1*v1 (+ c2*v2) REL k``: unit rows (bounds) and wide rows."""
    chosen = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    left = Const(0)
    for name in chosen:
        left = F.Add(left, F.Mul(Const(draw(cube_coefficients)), var(name)))
    rel = draw(st.sampled_from([F.lt, F.le, F.gt, F.ge, F.eq, F.ne]))
    return rel(left, Const(draw(st.integers(min_value=-6, max_value=6))))


def cubes(max_size=5):
    """A cube: a short list of linear literals over ``NAMES``."""
    return st.lists(cube_atoms(), min_size=1, max_size=max_size)
