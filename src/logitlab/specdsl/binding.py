"""Bind a specification to a dataset for estimation.

Binding selects the dataset's arrays for every referenced column, resolves
the free-parameter layout (declaration order, fixed parameters dropped),
precomputes piecewise segment lengths, and runs the static domain checks
(log/sqrt/box-cox arguments that contain no free parameters must be in
range on every row where the alternative is available).  Each utility's
additive terms that are affine in the free parameters have a ∂/∂θ that
does not depend on θ, so binding caches it as ``design``; the other
terms, the residual, are differentiated at each θ.

The expression evaluator is generic over the value algebra: plain numpy
arrays here, dual numbers in the estimation engine.  Anything passed as
``funcs`` just has to supply the elementwise functions below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np

from logitlab.dataset import Dataset
from logitlab.specdsl.analysis import check_variables
from logitlab.specdsl.expr import (
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
    var_names,
)
from logitlab.specdsl.parser import SpecDslError, UtilitySpec, additive_terms
from logitlab.specdsl.serialize import serialize_expr


class DomainViolation(SpecDslError):
    """log/sqrt/boxcox applied to out-of-range data."""


class MissingAlternative(SpecDslError):
    """Spec and dataset disagree on the set of alternatives."""


ALL_ROWS = slice(None)

NUMPY_FUNCS = SimpleNamespace(
    log=np.log,
    exp=np.exp,
    sqrt=np.sqrt,
    expm1=np.expm1,
    pow=lambda x, c: np.power(x, c),
    scalar=lambda x: float(x),
)


def evaluate_expr(
    expr: Expr,
    columns: Mapping[str, Any],
    params: Mapping[str, Any],
    funcs: SimpleNamespace = NUMPY_FUNCS,
    segments: Mapping[tuple, Any] | None = None,
) -> Any:
    """Evaluate a tree over whatever algebra ``funcs`` implements.

    ``params`` values may be plain floats or dual numbers; columns are
    plain arrays.  ``segments`` maps (var, knots) to precomputed segment
    length arrays for piecewise nodes (see :func:`piecewise_segments`).
    """
    ev = lambda e: evaluate_expr(e, columns, params, funcs, segments)
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        return params[expr.name]
    if isinstance(expr, Mul):
        return ev(expr.left) * ev(expr.right)
    if isinstance(expr, Add):
        return ev(expr.left) + ev(expr.right)
    if isinstance(expr, Sub):
        return ev(expr.left) - ev(expr.right)
    if isinstance(expr, Div):
        left, right = ev(expr.left), ev(expr.right)
        if isinstance(left, float) and isinstance(right, float):
            left = np.float64(left)  # a zero divisor then gives inf or NaN, as arrays do
        return left / right
    if isinstance(expr, Neg):
        return -ev(expr.operand)
    if isinstance(expr, Call1):
        return getattr(funcs, expr.fn)(ev(expr.arg))
    if isinstance(expr, Pow):
        return funcs.pow(ev(expr.base), expr.exponent)
    if isinstance(expr, BoxCox):
        base = ev(expr.base)
        shape = params[expr.shape]
        # expm1 keeps (x^s - 1)/s accurate for small s; at s = 0 exactly,
        # fall back to the expansion log(x) + s*log(x)^2/2, which also has
        # the right derivative in s.
        logx = funcs.log(base)
        if funcs.scalar(shape) == 0.0:
            return logx + shape * (logx * logx * 0.5)
        return funcs.expm1(shape * logx) / shape
    if isinstance(expr, Piecewise):
        if segments is None:
            raise ValueError("piecewise node requires precomputed segments")
        segs = segments[(expr.var, expr.knots)]
        total = params[expr.params[0]] * segs[:, 0]
        for i, pname in enumerate(expr.params[1:], start=1):
            total = total + params[pname] * segs[:, i]
        return total
    if isinstance(expr, Var):
        return columns[expr.name]
    raise TypeError(f"not an expression node: {expr!r}")


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
    holds one expression per alternative in the same order.  ∂V/∂θ is
    ``design``, ∂/∂θ of the utilities' affine terms (zero on unavailable
    cells), plus ∂/∂θ of ``residuals``, their other terms, which contain
    only the free parameters at indices ``residual_idx``.  ``kept`` belongs to
    the estimation kernel: at most one value pass's (log-likelihood,
    probabilities), keyed by ``theta.tobytes()``.
    """

    spec: UtilitySpec
    dataset: Dataset
    alternatives: tuple[str, ...]
    utilities: tuple[Expr, ...]
    free_names: tuple[str, ...]
    start: np.ndarray  # aligned to free_names
    fixed: dict[str, float]
    columns: dict[str, np.ndarray]
    avail: np.ndarray  # (n_obs, n_alts) bool
    choice_idx: np.ndarray  # (n_obs,) int
    design: np.ndarray  # (n_obs, n_alts, n_free)
    residuals: tuple[Expr, ...]
    residual_idx: tuple[int, ...]  # into free_names
    segments: dict[tuple, np.ndarray] = field(default_factory=dict)
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

    def param_env(self, theta: np.ndarray) -> dict[str, Any]:
        """Map every parameter name to its value under ``theta``, as plain floats."""
        env: dict[str, Any] = dict(self.fixed)
        env.update(zip(self.free_names, map(float, theta)))
        return env

    def utility_values(
        self, expr: Expr, params: Mapping[str, Any], funcs=NUMPY_FUNCS, rows: slice = ALL_ROWS
    ) -> Any:
        """``expr`` on the observations in ``rows``, read through column and segment views."""
        if rows is ALL_ROWS:
            return evaluate_expr(expr, self.columns, params, funcs, self.segments)
        columns = {name: column[rows] for name, column in self.columns.items()}
        segments = {key: segs[rows] for key, segs in self.segments.items()}
        return evaluate_expr(expr, columns, params, funcs, segments)

    def utility_matrix(
        self, theta: np.ndarray, rows: slice = ALL_ROWS, out: np.ndarray | None = None
    ) -> np.ndarray:
        """(rows, n_alts) utilities of the observations in ``rows``, written into ``out``
        when given; unavailable cells may be non-finite."""
        env = self.param_env(theta)
        n = len(range(*rows.indices(self.n_obs)))
        if out is None:
            out = np.empty((n, self.n_alts))
        with np.errstate(all="ignore"):
            for j, expr in enumerate(self.utilities):
                out[:, j] = np.broadcast_to(self.utility_values(expr, env, rows=rows), (n,))
        return out


def _domain_checks(spec, utilities, columns, fixed, avail, alternatives, segments):
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
                    evaluate_expr(base, columns, fixed, NUMPY_FUNCS, segments),
                    (avail.shape[0],),
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

    needed: set[str] = set()
    for expr in utilities:
        needed |= var_names(expr)
    columns = {name: dataset.columns[name] for name in sorted(needed)}

    segments: dict[tuple, np.ndarray] = {}
    for expr in utilities:
        for node in iter_nodes(expr):
            if isinstance(node, Piecewise):
                key = (node.var, node.knots)
                if key not in segments:
                    segments[key] = piecewise_segments(columns[node.var], node.knots)

    fixed = {p.name: p.fixed for p in spec.parameters if p.fixed is not None}
    free = spec.free_parameters
    free_names = tuple(p.name for p in free)
    start = np.array([p.start for p in free], dtype=float)

    _domain_checks(spec, utilities, columns, fixed, dataset.avail, alternatives, segments)

    affine, residuals = zip(*(_affine_and_residual(u, set(free_names)) for u in utilities))
    in_residuals = set().union(*map(param_names, residuals))
    model = BoundModel(
        spec=spec,
        dataset=dataset,
        alternatives=alternatives,
        utilities=utilities,
        free_names=free_names,
        start=start,
        fixed=fixed,
        columns=columns,
        avail=dataset.avail,
        choice_idx=dataset.choice_idx,
        design=np.zeros((dataset.n_obs, len(alternatives), len(free_names))),
        residuals=residuals,
        residual_idx=tuple(i for i, name in enumerate(free_names) if name in in_residuals),
        segments=segments,
    )
    from logitlab.engine.kernel import jacobian  # the engine imports this module

    jacobian(model, affine, start, range(len(free_names)), out=model.design)
    return model
