"""Bind a specification to a dataset for estimation.

Binding resolves the free-parameter layout (declaration order, fixed
parameters dropped), runs the static domain checks (log/sqrt/box-cox
arguments that contain no free parameters must be in range on every row
where the alternative is available) and compiles each utility once into a
function of ``(rows, theta)`` (:func:`compile_expr`).  Each utility's
additive terms that are affine in the free parameters have a ∂/∂θ that
does not depend on θ, so binding caches it as ``design``; the other
terms, the residual, are differentiated at each θ.  One compiler,
:func:`compile_derivative`, differentiates both into functions of the
data, θ and a direction.  Binding writes each affine derivative along
each parameter's unit vector into that parameter's slab of the design,
and keeps the residuals' derivatives for the estimation kernel.

Compiled expressions and derivatives call numpy on plain floats and
arrays, so this module never imports the engine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
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

Compiled = Callable[[slice, Sequence[float]], Any]  # (rows, theta) -> value on those rows
# (rows, theta, direction) -> derivative along direction at theta on those rows; see compile_derivative
Derivative = Callable[[slice, Sequence[float], Sequence[Any]], Any]

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: np.divide}

# The chain rule's factor for each unary function: (du, u) -> d f(u).
_CHAIN = {
    "log": lambda du, u: np.divide(du, u),
    "exp": lambda du, u: du * np.exp(u),
    "expm1": lambda du, u: du * np.exp(u),
    "sqrt": lambda du, u: np.divide(du, 2.0 * np.sqrt(u)),
}


def _boxcox_forms(e: BoxCox) -> tuple[Expr, Expr]:
    """``e`` at shape 0 and elsewhere, as trees: ``log x + s·(log x·log x·0.5)``,
    whose derivative in s is right at 0, and ``expm1(s·log x)/s``, which keeps
    (x^s - 1)/s accurate for small s."""
    logx, s = Call1("log", e.base), Param(e.shape)
    return Add(logx, Mul(s, Mul(Mul(logx, logx), Const(0.5)))), Div(Call1("expm1", Mul(s, logx)), s)


def compile_expr(
    expr: Expr,
    columns: Mapping[str, np.ndarray],
    free_names: Sequence[str],
    fixed: Mapping[str, float],
) -> Compiled:
    """``expr`` as a function of ``(rows, theta)``: its value on the observations
    in ``rows``, with the free parameter ``free_names[i]`` read as ``theta[i]``.

    Every leaf is resolved here, once: a fixed parameter is folded in as its
    value, a variable is its column and a piecewise node its segment lengths
    (:func:`piecewise_segments`), each sliced to ``rows`` when called.  A
    box-cox node takes one of :func:`_boxcox_forms` by its shape's value.
    """
    index = {name: i for i, name in enumerate(free_names)}

    def param(name: str) -> Compiled:
        if name in index:
            i = index[name]
            return lambda rows, theta: theta[i]
        value = fixed[name]
        return lambda rows, theta: value

    def compile_node(e: Expr) -> Compiled:
        if isinstance(e, Const):
            value = e.value
            return lambda rows, theta: value
        if isinstance(e, Param):
            return param(e.name)
        if isinstance(e, Var):
            column = columns[e.name]
            return lambda rows, theta: column[rows]
        if isinstance(e, BINARY_NODES):  # np.divide: a zero divisor gives inf or NaN
            op, left, right = _BINARY[type(e)], compile_node(e.left), compile_node(e.right)
            return lambda rows, theta: op(left(rows, theta), right(rows, theta))
        if isinstance(e, Neg):
            operand = compile_node(e.operand)
            return lambda rows, theta: -operand(rows, theta)
        if isinstance(e, Call1):
            fn, arg = getattr(np, e.fn), compile_node(e.arg)
            return lambda rows, theta: fn(arg(rows, theta))
        if isinstance(e, Pow):
            base, exponent = compile_node(e.base), e.exponent
            return lambda rows, theta: np.power(base(rows, theta), exponent)
        if isinstance(e, BoxCox):
            shape = param(e.shape)
            at_zero, elsewhere = map(compile_node, _boxcox_forms(e))
            return lambda rows, theta: (at_zero if shape(rows, theta) == 0.0 else elsewhere)(rows, theta)
        if isinstance(e, Piecewise):
            segments = piecewise_segments(columns[e.var], e.knots)
            slopes = [param(name) for name in e.params]

            def piecewise(rows, theta):
                segs = segments[rows]
                total = slopes[0](rows, theta) * segs[:, 0]
                for i, slope in enumerate(slopes[1:], start=1):
                    total = total + slope(rows, theta) * segs[:, i]
                return total

            return piecewise
        raise TypeError(f"not an expression node: {e!r}")

    return compile_node(expr)


def compile_derivative(
    expr: Expr,
    columns: Mapping[str, np.ndarray],
    free_names: Sequence[str],
    fixed: Mapping[str, float],
) -> Derivative | None:
    """The derivative of ``expr`` along ``direction`` at ``theta``, as a function of
    ``(rows, theta, direction)``: given the unit vector of free parameter q, it is
    ∂expr/∂θ_q on the observations in ``rows``.  None when ``expr`` has no free
    parameter.

    Each rule repeats, on that one column, the arithmetic of a forward-mode
    dual-number pass seeded on every free parameter: ``direction[i]`` is the seed
    of ``free_names[i]``, a subexpression with no free parameter is a plain value
    with no gradient, and the values the rules need are those of
    :func:`compile_expr`.  So the result has the bits of that pass's column on
    any data, zero signs and NaNs included.  A seed may also be a (k, 1) array,
    one seed per direction: the rules broadcast it against the data, and the
    result's row q is the derivative along direction q.
    """
    index = {name: i for i, name in enumerate(free_names)}
    value = lambda e: compile_expr(e, columns, free_names, fixed)

    def derive(e: Expr) -> Derivative | None:
        if not param_names(e) & index.keys():
            return None
        if isinstance(e, Param):
            i = index[e.name]
            return lambda rows, theta, d: d[i]
        if isinstance(e, Neg):
            operand = derive(e.operand)
            return lambda rows, theta, d: -operand(rows, theta, d)
        if isinstance(e, (Add, Sub)):
            left, right = derive(e.left), derive(e.right)
            if right is None:
                return left
            if left is None:
                return right if isinstance(e, Add) else lambda rows, theta, d: -right(rows, theta, d)
            op = _BINARY[type(e)]
            return lambda rows, theta, d: op(left(rows, theta, d), right(rows, theta, d))
        if isinstance(e, Mul) and not param_names(e.left) & index.keys():
            e = Mul(e.right, e.left)  # products commute bit for bit: the gradient goes left
        if isinstance(e, (Mul, Div)):
            du, dv, v = derive(e.left), derive(e.right), value(e.right)
            if dv is None:  # u'·v, u'/v
                op = _BINARY[type(e)]
                return lambda rows, theta, d: op(du(rows, theta, d), v(rows, theta))
            u = value(e.left)
            if isinstance(e, Mul):  # u'·v + v'·u
                return lambda rows, theta, d: (
                    du(rows, theta, d) * v(rows, theta) + dv(rows, theta, d) * u(rows, theta)
                )

            def quotient(rows, theta, d):  # q = u/v: (u' - v'·q)/v, or -v'·(q/v) when u is plain
                denominator = v(rows, theta)
                q = np.divide(u(rows, theta), denominator)
                if du is None:
                    return -dv(rows, theta, d) * np.divide(q, denominator)
                return np.divide(du(rows, theta, d) - dv(rows, theta, d) * q, denominator)

            return quotient
        if isinstance(e, (Call1, Pow)):
            inner = e.arg if isinstance(e, Call1) else e.base
            du, u = derive(inner), value(inner)
            if isinstance(e, Call1):
                chain = _CHAIN[e.fn]
            else:
                exponent = e.exponent
                chain = lambda du, u: du * (exponent * np.power(u, exponent - 1.0))
            return lambda rows, theta, d: chain(du(rows, theta, d), u(rows, theta))
        if isinstance(e, BoxCox):
            shape = value(Param(e.shape))
            at_zero, elsewhere = map(derive, _boxcox_forms(e))
            return lambda rows, theta, d: (
                (at_zero if shape(rows, theta) == 0.0 else elsewhere)(rows, theta, d)
            )
        if isinstance(e, Piecewise):
            segments = piecewise_segments(columns[e.var], e.knots)
            slopes = [(i, slope) for i, p in enumerate(e.params) if (slope := derive(Param(p)))]

            def piecewise(rows, theta, d):  # a fixed slope's term adds no gradient
                segs = segments[rows]
                return reduce(operator.add, (slope(rows, theta, d) * segs[:, i] for i, slope in slopes))

            return piecewise
        raise TypeError(f"not an expression node: {e!r}")

    return derive(expr)


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


def _affine_and_residual(expr: Expr, free: set[str]) -> tuple[Expr, Expr]:
    """Sums of ``expr``'s additive terms that are affine in ``free`` and of the
    others; an empty sum is ``Const(0.0)``, and an affine ``expr`` is kept whole."""
    if is_affine(expr, free):
        return expr, Const(0.0)
    parts: tuple[list, list] = ([], [])
    for sign, term in additive_terms(expr):
        parts[not is_affine(term, free)].append(term if sign > 0 else Neg(term))
    affine, residual = (reduce(Add, part) if part else Const(0.0) for part in parts)
    return affine, residual


@dataclass(frozen=True)
class BoundModel:
    """A spec matched to a dataset, ready for likelihood evaluation.

    Arrays are aligned to ``alternatives`` (dataset order).  ``utilities``
    holds one compiled expression per alternative in the same order.  ∂V/∂θ
    is ``design``, ∂/∂θ of the utilities' affine terms (zero on unavailable
    cells), plus ∂/∂θ of their other terms: ``residuals`` holds those terms'
    compiled derivatives (:func:`compile_derivative`), one per alternative and
    None where they have no free parameter, which involve only the free
    parameters at indices ``residual_idx``.  The design is parameter-first
    and then alternative-major: ``design[q]`` is parameter q's contiguous
    (n_alts, n_obs) slab, laid out as the kernel's probabilities are.

    The rest belongs to the estimation kernel.  ``kept`` holds at most one
    value pass's (log-likelihood, probabilities), keyed by ``theta.tobytes()``,
    with the probabilities (n_alts, n_obs).  The cached properties are arrays
    the kernel derives from ``avail`` and ``choice_idx`` on the model's first
    pass, in the same layout: the availability weights, their logs and the
    chosen cells.
    """

    spec: UtilitySpec
    dataset: Dataset
    alternatives: tuple[str, ...]
    utilities: tuple[Compiled, ...]
    free_names: tuple[str, ...]
    start: np.ndarray  # aligned to free_names
    avail: np.ndarray  # (n_obs, n_alts) bool
    choice_idx: np.ndarray  # (n_obs,) int
    design: np.ndarray  # (n_free, n_alts, n_obs)
    residuals: tuple[Derivative | None, ...]
    residual_idx: tuple[int, ...]  # into free_names
    kept: dict[bytes, tuple[float, np.ndarray]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def n_obs(self) -> int:
        return int(self.avail.shape[0])

    @property
    def n_alts(self) -> int:
        return len(self.alternatives)

    @property
    def n_free(self) -> int:
        return len(self.free_names)

    @cached_property
    def avail_weight(self) -> np.ndarray:
        """(n_alts, n_obs): 1.0 on available cells, 0.0 elsewhere."""
        return np.ascontiguousarray(self.avail.T, dtype=float)

    @cached_property
    def avail_log(self) -> np.ndarray:
        """(n_alts, n_obs) log of ``avail_weight``: 0.0 on available cells, -inf elsewhere."""
        with np.errstate(divide="ignore"):
            return np.log(self.avail_weight)

    @cached_property
    def chosen_cell(self) -> np.ndarray:
        """(n_obs,) flat index of each observation's chosen cell in an (n_alts, n_obs) array."""
        return self.choice_idx.astype(np.intp) * self.n_obs + np.arange(self.n_obs)

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
                out[j] = utility(rows, values)
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
                    compile_expr(base, columns, (), fixed)(ALL_ROWS, ()), (avail.shape[0],)
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

    affine, residuals = zip(*(_affine_and_residual(u, set(free_names)) for u in utilities))
    derive_all = lambda exprs: tuple(compile_derivative(e, dataset.columns, free_names, fixed) for e in exprs)
    in_residuals = set().union(*map(param_names, residuals))
    design = np.zeros((len(free_names), len(alternatives), dataset.n_obs))
    units = np.eye(len(free_names)).tolist()
    with np.errstate(all="ignore"):
        for j, derivative in enumerate(derive_all(affine)):
            if derivative is not None:
                for q, unit in enumerate(units):
                    design[q, j] = derivative(ALL_ROWS, start, unit)
    design[:, ~dataset.avail.T] = 0.0
    return BoundModel(
        spec=spec,
        dataset=dataset,
        alternatives=alternatives,
        utilities=tuple(compile_expr(u, dataset.columns, free_names, fixed) for u in utilities),
        free_names=free_names,
        start=start,
        avail=dataset.avail,
        choice_idx=dataset.choice_idx,
        design=design,
        residuals=derive_all(residuals),
        residual_idx=tuple(i for i, name in enumerate(free_names) if name in in_residuals),
    )
