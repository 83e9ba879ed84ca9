"""Bind a specification to a dataset for estimation.

Binding resolves the free-parameter layout (declaration order, fixed
parameters dropped), runs the static domain checks (log/sqrt/box-cox
arguments that contain no free parameters must be in range on every row
where the alternative is available) and compiles each utility once, by
one forward-mode compiler (:func:`compile_expr`), into a function of
``(rows, theta, d)`` that gives its value and its derivative along the
direction ``d``.  The value pass asks for the value alone.  Along a free
parameter that only the utilities' affine additive terms read, ∂V/∂θ does
not depend on θ, so binding caches it as ``design``.  It stores a row
∂Vⱼ/∂θ_q only where alternative j's affine terms name parameter q, as the
expression says, whatever the data: each alternative's rows are its affine
terms' derivative along those parameters' unit vectors, with no θ, all in
one call per row block, zero on unavailable cells.  A pair with no row is
zero.  Along the parameters that the other terms read (``residual_idx``),
the estimation kernel differentiates the whole compiled utilities at each
θ.

The design fill and every kernel pass run over the same row blocks,
:func:`row_blocks` of ``ROW_BLOCK`` rows each.

Compiled expressions call numpy on plain floats and arrays, so this module
never imports the engine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from logitlab.dataset import Dataset
from logitlab.specdsl.analysis import check_variables
from logitlab.specdsl.expr import (
    BINARY_NODES,
    Add,
    BoxCox,
    Call1,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Param,
    Piecewise,
    Pow,
    Sub,
    Var,
    children,
    iter_nodes,
    param_names,
)
from logitlab.specdsl.parser import SpecDslError, UtilitySpec, additive_terms
from logitlab.specdsl.serialize import serialize_expr


class DomainViolation(SpecDslError):
    """log/sqrt/boxcox applied to out-of-range data."""


class MissingAlternative(SpecDslError):
    """Spec and dataset disagree on the set of alternatives."""


ALL_ROWS = slice(None)
ROW_BLOCK = 25_000  # rows per block of bind's design fill and of each kernel pass


def row_blocks(n: int) -> list[slice]:
    """The blocks of ``ROW_BLOCK`` rows that cover ``n`` rows, in row order;
    ``[ALL_ROWS]`` when one block holds them all.  Each rule holds its operands
    while it makes its result, and blocks of this size keep those temporaries in
    cache."""
    if n <= ROW_BLOCK:
        return [ALL_ROWS]
    return [slice(start, min(start + ROW_BLOCK, n)) for start in range(0, n, ROW_BLOCK)]


# (rows, theta, d) -> (value, derivative along d) on those rows; see compile_expr
Compiled = Callable[[slice, Sequence[float] | None, Sequence[Any] | None], tuple[Any, Any]]


def _binary_rule(op, derivative):
    """The rule of a two-operand node: its operands' values u, v and derivatives
    du, dv (None where the operand reads no free parameter) -> its value
    w = op(u, v) and ``derivative(u, du, v, dv, w)``; either is None where it
    cannot be had."""

    def rule(u, du, v, dv):
        w = None if u is None or v is None else op(u, v)
        return w, None if du is None and dv is None else derivative(u, du, v, dv, w)

    return rule


_BINARY_RULES = {
    Add: _binary_rule(
        operator.add, lambda u, du, v, dv, w: du if dv is None else dv if du is None else du + dv
    ),
    Sub: _binary_rule(
        operator.sub, lambda u, du, v, dv, w: du if dv is None else -dv if du is None else du - dv
    ),
    Mul: _binary_rule(
        operator.mul,
        lambda u, du, v, dv, w: du * v if dv is None else dv * u if du is None else du * v + dv * u,
    ),
    Div: _binary_rule(  # np.divide: a zero divisor gives inf or NaN
        np.divide,
        lambda u, du, v, dv, w: (
            np.divide(du, v) if dv is None
            else -dv * np.divide(w, v) if du is None
            else np.divide(du - dv * w, v)
        ),
    ),
}
_add, _mul, _div = (_BINARY_RULES[kind] for kind in (Add, Mul, Div))


# Each one-operand rule: (u, du) -> its value and its derivative, du None where u
# reads no free parameter; _power(p) is the rule of the power with exponent p.
_CALL_RULES = {
    "log": lambda u, du: (np.log(u), None if du is None else np.divide(du, u)),
    "exp": lambda u, du: (w := np.exp(u), None if du is None else du * w),
    "expm1": lambda u, du: (np.expm1(u), None if du is None else du * np.exp(u)),
    "sqrt": lambda u, du: (w := np.sqrt(u), None if du is None else np.divide(du, 2.0 * w)),
}
_neg = lambda u, du: (None if u is None else -u, None if du is None else -du)
_power = lambda p: lambda u, du: (
    np.power(u, p), None if du is None else du * (p * np.power(u, p - 1.0))
)


def _combine(rule, left: Compiled, right: Compiled) -> Compiled:
    """The compiled two-operand node ``rule`` over its compiled operands."""
    return lambda rows, theta, d: rule(*left(rows, theta, d), *right(rows, theta, d))


def _column(values: np.ndarray) -> Compiled:
    """The leaf of a fixed column: its values on ``rows``, no derivative."""
    return lambda rows, theta, d: (values[rows], None)


def _boxcox(logx, dlogx, s, ds):
    """Box-Cox from log x and the shape s, each with its derivative:
    ``log x + s·(log x·log x·0.5)`` at s = 0, whose derivative in s is right
    there, and elsewhere ``expm1(s·log x)/s``, which keeps (x^s - 1)/s accurate
    for small s."""
    if s == 0.0:
        return _add(logx, dlogx, *_mul(s, ds, *_mul(*_mul(logx, dlogx, logx, dlogx), 0.5, None)))
    return _div(*_CALL_RULES["expm1"](*_mul(s, ds, logx, dlogx)), s, ds)


def compile_expr(
    expr: Expr,
    columns: Mapping[str, np.ndarray],
    free_names: Sequence[str],
    fixed: Mapping[str, float],
) -> Compiled:
    """``expr`` as one forward-mode pass: a function of ``(rows, theta, d)`` that
    gives its value on the observations in ``rows`` and its derivative along the
    direction ``d``, reading free parameter ``free_names[i]`` as ``theta[i]`` with
    seed ``d[i]``.  Along free parameter q's unit vector the derivative is
    ∂expr/∂θ_q.  A seed may also be a (k, 1) array, one seed per direction; the
    derivative's row q is then the one along direction q.

    The derivative is None when ``d`` is None or ``expr`` reads no free parameter.
    ``theta`` may be None for an expression affine in the free parameters, whose
    derivative rules read only values that involve none (bind's design); then
    the value is None where ``expr`` reads a free parameter.

    Every node compiles as a leaf, a one-operand rule or a two-operand rule.  A
    leaf is resolved here, once: a constant, a free parameter, a fixed parameter
    folded in as its value, or a column sliced to ``rows`` when called (a
    variable, or one segment of a piecewise node).  ``-``, ``pow`` and the calls
    are one-operand rules; ``+``, ``-``, ``*`` and ``/`` are two-operand rules.  A
    piecewise node is the sum of products ``Σ b_s × segment_s`` over its slopes
    and its segment lengths (:func:`piecewise_segments`), built from those
    rules.  A box-cox node takes one of the forms of :func:`_boxcox` by its
    shape's value.

    Each node computes its value and its derivative once per call (an
    exponential's derivative reuses its value, a square root's its root and a
    quotient's its quotient), with the arithmetic of a dual-number pass seeded on
    every free parameter.  So the value has the bits of a tree walk on floats and
    the derivative those of that pass's column, zero signs and NaNs included.
    """
    index = {name: i for i, name in enumerate(free_names)}

    def param(name: str) -> Compiled:
        if name in index:
            i = index[name]
            return lambda rows, theta, d: (None if theta is None else theta[i], None if d is None else d[i])
        value = fixed[name]
        return lambda rows, theta, d: (value, None)

    def compile_node(e: Expr) -> Compiled:
        if isinstance(e, Const):
            value = e.value
            return lambda rows, theta, d: (value, None)
        if isinstance(e, Param):
            return param(e.name)
        if isinstance(e, Var):
            return _column(columns[e.name])
        if isinstance(e, BINARY_NODES):
            return _combine(_BINARY_RULES[type(e)], *map(compile_node, children(e)))
        if isinstance(e, (Neg, Call1, Pow)):
            (operand,) = map(compile_node, children(e))
            rule = (
                _CALL_RULES[e.fn] if isinstance(e, Call1) else _neg if isinstance(e, Neg) else _power(e.exponent)
            )
            return lambda rows, theta, d: rule(*operand(rows, theta, d))
        if isinstance(e, BoxCox):
            base, shape = compile_node(e.base), param(e.shape)
            log = _CALL_RULES["log"]
            return lambda rows, theta, d: _boxcox(*log(*base(rows, theta, d)), *shape(rows, theta, d))
        if isinstance(e, Piecewise):
            segments = piecewise_segments(columns[e.var], e.knots).T.copy()
            terms = [_combine(_mul, param(name), _column(s)) for name, s in zip(e.params, segments)]
            return reduce(lambda total, term: _combine(_add, total, term), terms)
        raise TypeError(f"not an expression node: {e!r}")

    return compile_node(expr)


def piecewise_segments(x: np.ndarray, knots: tuple[float, ...]) -> np.ndarray:
    """Per-row lengths of x's overlap with each knot segment.

    The first segment is unbounded below and the last unbounded above, so
    the columns always sum to x exactly and the spline is linear in the
    tails.
    """
    cols = [np.minimum(x, knots[0])]
    for lo, hi in zip(knots, knots[1:]):
        cols.append(np.clip(x - lo, 0.0, hi - lo))
    cols.append(np.maximum(x - knots[-1], 0.0))
    return np.column_stack(cols)


def is_affine(expr: Expr, free: set[str]) -> bool:
    """Whether ``expr`` is affine in the parameters named in ``free``.

    Free parameters may enter only through ``+``, ``-``, unary ``-``,
    products with a factor free of them, division by a denominator free of
    them, and piecewise slopes (segments are fixed at bind time).  Under
    log/exp/sqrt/pow/boxcox or in a denominator, the derivative depends on
    the parameter values.
    """
    depends = lambda e: bool(param_names(e) & free)
    if not depends(expr) or isinstance(expr, (Param, Piecewise)):
        return True
    if isinstance(expr, (Add, Sub)):
        return is_affine(expr.left, free) and is_affine(expr.right, free)
    if isinstance(expr, Neg):
        return is_affine(expr.operand, free)
    if isinstance(expr, Mul):
        return (not depends(expr.left) and is_affine(expr.right, free)) or (
            not depends(expr.right) and is_affine(expr.left, free)
        )
    if isinstance(expr, Div):
        return not depends(expr.right) and is_affine(expr.left, free)
    return False


def _affine_part(expr: Expr, free: set[str]) -> tuple[Expr, set[str]]:
    """The sum of ``expr``'s additive terms that are affine in ``free``, and the
    parameters in ``free`` that its other terms read; an empty sum is
    ``Const(0.0)``, and an affine ``expr`` is kept whole."""
    if is_affine(expr, free):
        return expr, set()
    affine, residual = [], set()
    for sign, term in additive_terms(expr):
        if is_affine(term, free):
            affine.append(term if sign > 0 else Neg(term))
        else:
            residual |= param_names(term) & free
    return reduce(Add, affine) if affine else Const(0.0), residual


@dataclass(frozen=True)
class BoundModel:
    """A spec matched to a dataset, ready for likelihood evaluation.

    Arrays are aligned to ``alternatives`` (dataset order).  ``utilities``
    holds one compiled expression per alternative in the same order
    (:func:`compile_expr`), which gives its value and its derivative along a
    direction.  ``reads[j]`` lists, ascending, the free parameters that
    alternative j's utility names; ∂Vⱼ/∂θ is zero along every other one.
    ``residual_idx`` indexes the free parameters that some utility's non-affine
    terms read; ∂V/∂θ along those is the utilities' derivative at each θ.  Along
    every other free parameter it does not depend on θ and is stored in
    ``design``: ``design[j]`` is a contiguous (len(design_idx[j]), n_obs) array
    whose row i is ∂Vⱼ/∂θ along parameter ``design_idx[j][i]``, the derivative
    of alternative j's affine terms, zero on unavailable cells.
    ``design_idx[j]`` is ``reads[j]`` without ``residual_idx``.

    The rest belongs to the estimation kernel: ``avail_weight``, ``avail_log``
    and ``chosen_cell`` are made from ``avail`` and ``choice_idx`` when the model
    is constructed, in the same layout.  No pass writes to the model.
    """

    spec: UtilitySpec
    dataset: Dataset
    alternatives: tuple[str, ...]
    utilities: tuple[Compiled, ...]
    free_names: tuple[str, ...]
    start: np.ndarray  # aligned to free_names
    avail: np.ndarray  # (n_obs, n_alts) bool
    choice_idx: np.ndarray  # (n_obs,) int
    reads: tuple[tuple[int, ...], ...]  # per alternative, into free_names
    design: tuple[np.ndarray, ...]  # per alternative, (len(design_idx[j]), n_obs)
    residual_idx: tuple[int, ...]  # into free_names
    # per alternative, the parameters of design[j]'s rows
    design_idx: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    # (n_alts, n_obs): 1.0 on available cells, 0.0 elsewhere
    avail_weight: np.ndarray = field(init=False, compare=False, repr=False)
    # (n_alts, n_obs) log of avail_weight: 0.0 on available cells, -inf elsewhere
    avail_log: np.ndarray = field(init=False, compare=False, repr=False)
    # (n_obs,) flat index of each observation's chosen cell in an (n_alts, n_obs) array
    chosen_cell: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        weight = np.ascontiguousarray(self.avail.T, dtype=float)
        with np.errstate(divide="ignore"):
            log_weight = np.log(weight)
        chosen = self.choice_idx.astype(np.intp) * self.n_obs + np.arange(self.n_obs)
        stored = tuple(tuple(q for q in reads if q not in self.residual_idx) for reads in self.reads)
        if [len(idx) for idx in stored] != [len(rows) for rows in self.design]:
            raise ValueError("design does not hold one row per stored (parameter, alternative) pair")
        for name, value in (
            ("design_idx", stored), ("avail_weight", weight), ("avail_log", log_weight), ("chosen_cell", chosen)
        ):
            object.__setattr__(self, name, value)

    @property
    def n_obs(self) -> int:
        return int(self.avail.shape[0])

    @property
    def n_alts(self) -> int:
        return len(self.alternatives)

    @property
    def n_free(self) -> int:
        return len(self.free_names)

    def utility_matrix(
        self, theta: np.ndarray, rows: slice = ALL_ROWS, out: np.ndarray | None = None
    ) -> np.ndarray:
        """(n_alts, rows) utilities of the observations in ``rows``, one alternative
        per contiguous row, written into ``out`` when given; unavailable cells may be
        non-finite."""
        values = [float(t) for t in theta]
        if out is None:
            out = np.empty((self.n_alts, len(range(*rows.indices(self.n_obs)))))
        with np.errstate(all="ignore"):
            for j, utility in enumerate(self.utilities):
                out[j] = utility(rows, values, None)[0]
        return out


def _domain_checks(utilities, columns, fixed, avail, alternatives):
    with np.errstate(all="ignore"):
        for j, alt in enumerate(alternatives):
            mask = avail[:, j]
            for node in iter_nodes(utilities[j]):
                if isinstance(node, Call1) and node.fn in ("log", "sqrt"):
                    base, strict = node.arg, node.fn == "log"
                elif isinstance(node, BoxCox):
                    base, strict = node.base, True
                else:
                    continue
                if param_names(base) - set(fixed):
                    continue  # depends on free parameters, checked at runtime
                vals = np.broadcast_to(
                    compile_expr(base, columns, (), fixed)(ALL_ROWS, None, None)[0], (avail.shape[0],)
                )[mask]
                bad = ~(vals > 0) if strict else ~(vals >= 0)
                if bad.any():
                    kind = "non-positive" if strict else "negative"
                    raise DomainViolation(
                        f"utility of '{alt}' takes {node.fn if isinstance(node, Call1) else 'boxcox'}"
                        f" of {kind} values: {serialize_expr(base)}"
                    )


def bind(spec: UtilitySpec, dataset: Dataset) -> BoundModel:
    """Check a spec against a dataset and materialize it for estimation.

    Raises UnknownVariable, MissingAlternative or DomainViolation; never
    mutates its inputs.
    """
    check_variables(spec, dataset.dictionary)

    spec_alts = set(spec.alternatives)
    data_alts = set(dataset.alternatives)
    if spec_alts - data_alts:
        extra = sorted(spec_alts - data_alts)[0]
        raise MissingAlternative(f"spec defines utility for '{extra}', not in dataset")
    if data_alts - spec_alts:
        missing = sorted(data_alts - spec_alts)[0]
        raise MissingAlternative(f"dataset alternative '{missing}' has no utility in spec")

    alternatives = dataset.alternatives
    utilities = tuple(spec.utilities[alt] for alt in alternatives)
    fixed = {p.name: p.fixed for p in spec.parameters if p.fixed is not None}
    free = spec.free_parameters
    free_names = tuple(p.name for p in free)
    start = np.array([p.start for p in free], dtype=float)

    _domain_checks(utilities, dataset.columns, fixed, dataset.avail, alternatives)

    compile_on_data = lambda expr: compile_expr(expr, dataset.columns, free_names, fixed)
    affine, residual = zip(*(_affine_part(u, set(free_names)) for u in utilities))
    residual_idx = tuple(i for i, name in enumerate(free_names) if name in set().union(*residual))
    reads = tuple(
        tuple(q for q, name in enumerate(free_names) if name in named) for named in map(param_names, utilities)
    )
    design = []
    for j, terms in enumerate(affine):
        idx = [q for q in reads[j] if q not in residual_idx]
        X = np.empty((len(idx), dataset.n_obs))
        if idx:
            derivative = compile_on_data(terms)
            seeds = np.eye(len(free_names))[:, idx, None]  # seeds[i]: (len(idx), 1), parameter i's
            with np.errstate(all="ignore"):
                for rows in row_blocks(dataset.n_obs):
                    X[:, rows] = derivative(rows, None, seeds)[1]
            X[:, ~dataset.avail[:, j]] = 0.0
        design.append(X)
    return BoundModel(
        spec=spec,
        dataset=dataset,
        alternatives=alternatives,
        utilities=tuple(map(compile_on_data, utilities)),
        free_names=free_names,
        start=start,
        avail=dataset.avail,
        choice_idx=dataset.choice_idx,
        reads=reads,
        design=tuple(design),
        residual_idx=residual_idx,
    )
