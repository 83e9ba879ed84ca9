"""Parser, serializer, structural analysis and binding of the spec DSL."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitlab import validate
from logitlab.specdsl import analysis, binding, parser, serialize
from logitlab.specdsl.expr import (
    Add, BoxCox, Call1, Const, Div, Mul, Neg, Param, Piecewise, Pow, Sub, Var,
)
from logitlab.specdsl.parser import (
    DslSyntaxError, DuplicateParameter, SpecDslError, SpecInvariantError,
    UndeclaredParameter, UnknownFunction, parse_expression, parse_spec,
)

from test_validate import result_for

TWO_ALT = """spec demo
alt a b
param asc_a fixed 0
param asc_b
param b_time generic
param b_cost generic
U(a) = asc_a + b_time * time_a + b_cost * cost_a
U(b) = asc_b + b_time * time_b + b_cost * cost_b
"""


# -- parsing ---------------------------------------------------------------


def test_parse_spec_roles_and_scopes():
    spec = parse_spec(TWO_ALT)
    assert spec.name == "demo"
    assert spec.alternatives == ("a", "b")
    assert spec.parameter("asc_a").role == "asc"
    assert spec.parameter("asc_a").fixed == 0.0
    assert spec.parameter("asc_b").scope == "b"  # used in one utility only
    assert spec.parameter("b_time").role == "taste"
    assert spec.parameter("b_time").scope == "generic"
    assert [p.name for p in spec.free_parameters] == ["asc_b", "b_time", "b_cost"]
    assert spec.users == {
        "asc_a": ["a"], "asc_b": ["b"], "b_time": ["a", "b"], "b_cost": ["a", "b"],
    }
    assert spec.has_asc is True


def test_alt_specific_scope_inferred_from_usage():
    spec = parse_spec(
        "spec s\nalt a b\nparam b_x\nparam b_y generic\n"
        "U(a) = b_x * time_a + b_y * inc\nU(b) = b_y * inc\n"
    )
    assert spec.parameter("b_x").scope == "a"
    assert spec.parameter("b_y").scope == "generic"


def test_comments_and_continuations():
    spec = parse_spec(
        "# leading comment\nspec s  # trailing\nalt a b\nparam b_t generic\n"
        "U(a) = b_t * time_a \\\n    + b_t * cost_a\nU(b) = 0\n"
    )
    assert spec.name == "s"
    assert serialize.serialize_expr(spec.utilities["a"]) == "b_t * time_a + b_t * cost_a"


def test_undeclared_prefixed_identifier_rejected():
    with pytest.raises(UndeclaredParameter, match="beta_x"):
        parse_spec("spec s\nalt a b\nU(a) = beta_x * t\nU(b) = 0\n")


def test_duplicate_declaration_rejected():
    with pytest.raises(DuplicateParameter, match="b_t"):
        parse_spec("spec s\nalt a b\nparam b_t\nparam b_t\nU(a) = b_t * t\nU(b) = 0\n")


def test_unknown_function_rejected():
    with pytest.raises(UnknownFunction, match="sin"):
        parse_expression("b_t * sin(x)", {"b_t"})


def test_missing_and_undeclared_utilities_rejected():
    with pytest.raises(DslSyntaxError, match="no utility for alternative 'b'"):
        parse_spec("spec s\nalt a b\nparam b_t\nU(a) = b_t * t\n")
    with pytest.raises(DslSyntaxError, match="undeclared alternative"):
        parse_spec("spec s\nalt a\nparam b_t\nU(a) = b_t * t\nU(c) = 0\n")


@pytest.mark.parametrize("alt_line_first", [True, False], ids=["alt_line_first", "param_line_first"])
def test_param_scope_names_a_declared_alternative_in_either_line_order(alt_line_first):
    """``alt <name>`` on a ``param`` line is checked against the ``alt`` line wherever
    that line is.  Before, a ``param`` above it was not checked: the spec parsed, a run
    saved it, and every report on that runs directory failed re-reading it."""
    lines = ["alt car bus", "param b_x alt nowhere"]
    if not alt_line_first:
        lines.reverse()
    text = "\n".join(["spec s", *lines, "U(car) = b_x * time_car", "U(bus) = 0"]) + "\n"
    param_line = 2 + lines.index("param b_x alt nowhere")
    with pytest.raises(DslSyntaxError, match=f"^line {param_line}: unknown alternative 'nowhere'$"):
        parse_spec(text)
    assert parse_spec(text.replace("nowhere", "car")).parameter("b_x").scope == "car"


@pytest.mark.parametrize("name", ["../../escaped", "a/b", "1st", "s-1", "s.dcm"])
def test_spec_name_must_be_an_identifier(name):
    with pytest.raises(DslSyntaxError, match=f"^line 1: invalid spec name {re.escape(repr(name))}$"):
        parse_spec(f"spec {name}\nalt a\nU(a) = 0\n")
    assert parse_spec("spec _s1\nalt a\nU(a) = 0\n").name == "_s1"


def test_duplicate_utility_rejected():
    with pytest.raises(SpecDslError):
        parse_spec("spec s\nalt a b\nparam b_t\nU(a) = b_t * t\nU(a) = 0\nU(b) = 0\n")


def test_error_carries_line_and_column():
    try:
        parse_spec("spec s\nalt a b\nparam b_t\nU(a) = b_t * (t\nU(b) = 0\n")
    except SpecDslError as exc:
        assert exc.line == 4
        assert "line 4" in str(exc)
    else:
        pytest.fail("expected a syntax error")


def test_declared_names_need_no_reserved_prefix():
    # prefixes drive role inference and undeclared-name errors, nothing else
    spec = parse_spec("spec s\nalt a b\nparam gamma\nU(a) = gamma * t\nU(b) = 0\n")
    assert spec.parameter("gamma").role == "taste"
    assert isinstance(
        next(iter(parser.additive_terms(spec.utilities["a"])))[1], Mul
    )


def test_piecewise_knots_must_increase():
    with pytest.raises(SpecDslError, match="increasing"):
        parse_expression("piecewise(x, 5, 5, b_1, b_2, b_3)", {"b_1", "b_2", "b_3"})


def test_piecewise_arity_checked():
    with pytest.raises(SpecDslError):
        parse_expression("piecewise(x, 5, 10, b_1, b_2)", {"b_1", "b_2"})


def test_boxcox_shape_must_be_declared_parameter():
    with pytest.raises(SpecDslError):
        parse_expression("boxcox(x, 0.5)", set())
    e = parse_expression("boxcox(x, lambda_t)", {"lambda_t"})
    assert isinstance(e, BoxCox)
    assert e.shape == "lambda_t"


@pytest.mark.parametrize(
    "declaration, utility",
    [
        ("param b_t generic", "b_t * t * 1e999"),
        ("param b_t generic", "b_t * t - 2e308"),
        ("param b_t generic", "b_t * pow(t, -1e999)"),
        ("param b_t generic\nparam b_u generic", "piecewise(t, 1e999, b_t, b_u)"),
        ("param b_t fixed 1e999", "b_t * t"),
        ("param b_t start -1e400", "b_t * t"),
    ],
    ids=["literal", "subtracted_literal", "pow_exponent", "piecewise_knot", "fixed", "start"],
)
def test_numbers_too_large_for_a_float_are_syntax_errors(declaration, utility):
    """Before: 1e999 parsed to inf, which a results file cannot hold."""
    text = f"spec s\nalt a b\n{declaration}\nU(a) = {utility}\nU(b) = 0\n"
    message = "^line [345](, col [0-9]+)?: number out of range: -?[0-9]+e[0-9]+$"
    with pytest.raises(DslSyntaxError, match=message):
        parse_spec(text)
    assert parse_spec(text.replace("e999", "e99").replace("e400", "e40").replace("2e308", "2e307"))


def nested(shape: str, levels: int) -> str:
    """An expression of ``b_x`` and ``x`` that nests ``levels`` levels deep, in one of
    the shapes a degenerate LLM response can take."""
    inner = levels - 1
    return {
        "sum": " + ".join(["b_x"] * levels),
        "parentheses": "(" * inner + "b_x" + ")" * inner,
        "minus_signs": "-" * inner + "b_x",
        "logs": "log(" * inner + "x" + ")" * inner,
    }[shape]


DEEP_SHAPES = ("sum", "parentheses", "minus_signs", "logs")


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_expression_nesting_is_limited(shape):
    """Before: about 250 parentheses, 200 nested calls or a 1000-term sum raised
    RecursionError, which no caller catches."""
    assert parse_expression(nested(shape, parser.MAX_DEPTH), {"b_x"})
    message = f"^line 3: expression nests deeper than {parser.MAX_DEPTH} levels$"
    for levels in (parser.MAX_DEPTH + 1, 1000):
        with pytest.raises(DslSyntaxError, match=message):
            parse_expression(nested(shape, levels), {"b_x"}, line=3)


def test_pow_takes_numeric_exponent():
    e = parse_expression("pow(x, 2)", set())
    assert isinstance(e, Pow)
    assert e.exponent == 2.0
    e = parse_expression("pow(x, -0.5)", set())
    assert e.exponent == -0.5


def test_additive_terms_flatten_signs():
    e = parse_expression("a - (b + c) + d", set())
    terms = parser.additive_terms(e)
    assert [(s, serialize.serialize_expr(t)) for s, t in terms] == [
        (1, "a"), (-1, "b"), (-1, "c"), (1, "d"),
    ]


def test_asc_must_stay_a_bare_additive_term():
    with pytest.raises(SpecInvariantError, match="asc_a"):
        parse_spec(
            "spec s\nalt a b\nparam asc_a\nparam b_t\n"
            "U(a) = asc_a * time_a + b_t * time_a\nU(b) = 0\n"
        )


def test_asc_in_two_utilities_rejected():
    with pytest.raises(SpecInvariantError):
        parse_spec(
            "spec s\nalt a b\nparam asc_a\nU(a) = asc_a\nU(b) = asc_a\n"
        )


# -- serialization ----------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "b_a * (x + y) - (c - d) / 2",
        "a - (b - c)",
        "a / (b * c)",
        "-x + y",
        "log(x) + exp(y) - sqrt(z)",
        "pow(x, 2.5) * b_a",
        "boxcox(x, lambda_a) + piecewise(y, 30, 60, b_1, b_2, b_3)",
        "a - b - c",
        "a * b * c / d",
        "2 * x - 0.5",
    ],
)
def test_serialize_parse_fixed_point(text):
    declared = {"b_a", "lambda_a", "b_1", "b_2", "b_3"}
    tree = parse_expression(text, declared)
    out = serialize.serialize_expr(tree)
    assert parse_expression(out, declared) == tree
    assert serialize.serialize_expr(parse_expression(out, declared)) == out


def test_unary_minus_folds_into_literal():
    tree = parse_expression("-2 * x", set())
    assert tree == Mul(Const(-2.0), Var("x"))
    assert serialize.serialize_expr(tree) == "-2 * x"


def test_spec_serialization_canonical(best_spec):
    text = serialize.serialize_spec(best_spec)
    again = parse_spec(text)
    assert again == best_spec
    assert serialize.serialize_spec(again) == text


def test_comments_under_the_spec_line_are_plain_comments():
    """A spec is only its model: comments, provenance-like ones included, are
    skipped by the parser and never printed by the serializer."""
    text = (
        "spec s\n"
        "# model: alpha-large\n"
        "# provider: alpha\n"
        "alt a b\n"
        "# cost enters linearly: keep it simple\n"
        "param b_x generic\n"
        "U(a) = b_x * x\nU(b) = 0\n"
    )
    spec = parse_spec(text)
    out = serialize.serialize_spec(spec)
    assert "#" not in out
    assert out == "spec s\nalt a b\nparam b_x generic\nU(a) = b_x * x\nU(b) = 0\n"
    assert parse_spec(out) == spec


# -- property: parse/serialize round-trip ------------------------------------

PARAMS = ("b_one", "b_two", "asc_a", "lambda_s")
VARS = ("x", "y", "z")


def leaf():
    return st.one_of(
        st.sampled_from([Var(v) for v in VARS]),
        st.sampled_from([Param("b_one"), Param("b_two")]),
        st.floats(
            min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
        ).map(lambda v: Const(round(v, 3))),
    )


def negate(child):
    # the canonical form has no Neg over a literal: -2 parses to Const(-2)
    if isinstance(child, Const):
        return Const(-child.value)
    return Neg(child)


def compound(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda p: Add(*p)),
        binary.map(lambda p: Sub(*p)),
        binary.map(lambda p: Mul(*p)),
        binary.map(lambda p: Div(*p)),
        children.map(negate),
        st.tuples(st.sampled_from(("log", "exp", "sqrt")), children).map(
            lambda p: Call1(*p)
        ),
        st.tuples(children, st.sampled_from((2.0, 0.5, -1.0, 3.0))).map(
            lambda p: Pow(*p)
        ),
        children.map(lambda c: BoxCox(base=c, shape="lambda_s")),
        st.just(
            Piecewise(var="x", knots=(30.0, 60.0), params=("b_one", "b_two", "b_one"))
        ),
    )


EXPRS = st.recursive(leaf(), compound, max_leaves=25)


@settings(max_examples=500, deadline=None)
@given(EXPRS)
def test_round_trip_identity_500_random_exprs(tree):
    text = serialize.serialize_expr(tree)
    assert parse_expression(text, set(PARAMS)) == tree


@settings(max_examples=100, deadline=None)
@given(st.lists(EXPRS, min_size=2, max_size=2))
def test_round_trip_identity_full_specs(exprs):
    # declarations must agree with usage, exactly as the parser infers them
    from logitlab.specdsl.expr import iter_nodes

    decls = [
        parser.ParameterDecl("b_one", "taste", "generic", None, 0.0),
        parser.ParameterDecl("b_two", "taste", "generic", None, 0.0),
    ]
    uses_boxcox = any(
        isinstance(n, BoxCox) for e in exprs for n in iter_nodes(e)
    )
    if uses_boxcox:
        decls.append(parser.ParameterDecl("lambda_s", "shape", "generic", None, 1.0))
    spec = parser.UtilitySpec(
        name="hyp",
        alternatives=("a", "b"),
        parameters=tuple(decls),
        utilities={"a": exprs[0], "b": exprs[1]},
    )
    assert parse_spec(serialize.serialize_spec(spec)) == spec


# -- structural analysis ------------------------------------------------------


def test_structure_counts(synth_data, best_spec):
    stats = analysis.analyze_structure(best_spec, synth_data.dictionary)
    assert stats.n_params == 7
    assert stats.n_vars == 12
    assert stats.has_asc is True
    assert stats.n_generic == 4
    assert stats.n_altspecific == 0
    assert stats.n_socioeconomic == 1  # business enters the interaction
    assert stats.n_transformations == 0
    assert stats.n_interactions == 1  # generic time*business counts once


def test_interaction_counted_once_per_product_chain(synth_data):
    spec = parse_spec(
        "spec s\nalt car bus\nparam b_tb generic\n"
        "U(car) = b_tb * time_car * business * female\nU(bus) = 0\n"
    )
    stats = analysis.analyze_structure(spec, synth_data.dictionary)
    assert stats.n_interactions == 1
    assert stats.n_socioeconomic == 2


def test_distinct_interactions_count_separately(synth_data):
    spec = parse_spec(
        "spec s\nalt car bus\nparam b_tb generic\nparam b_cb generic\n"
        "U(car) = b_tb * time_car * business + b_cb * cost_car * business\n"
        "U(bus) = b_tb * time_bus * business + b_cb * cost_bus * business\n"
    )
    stats = analysis.analyze_structure(spec, synth_data.dictionary)
    assert stats.n_interactions == 2  # time*business and cost*business


def test_alt_specific_interactions_count_per_parameter(synth_data):
    spec = parse_spec(
        "spec s\nalt car bus\nparam b_tc\nparam b_tb\n"
        "U(car) = b_tc * time_car * business\nU(bus) = b_tb * time_bus * business\n"
    )
    stats = analysis.analyze_structure(spec, synth_data.dictionary)
    assert stats.n_interactions == 2


def test_transformations_count_excludes_exp(synth_data):
    spec = parse_spec(
        "spec s\nalt car bus\nparam b_a generic\nparam lambda_c generic\n"
        "U(car) = b_a * log(time_car) + b_a * exp(income) + b_a * sqrt(cost_car) \\\n"
        "  + b_a * boxcox(cost_bus, lambda_c)\nU(bus) = b_a * pow(time_bus, 2)\n"
    )
    stats = analysis.analyze_structure(spec, synth_data.dictionary)
    assert stats.n_transformations == 4  # log, sqrt, boxcox, pow; exp excluded


def test_unknown_variable_detected(synth_data):
    spec = parse_spec("spec s\nalt car bus\nparam b_t\nU(car) = b_t * zeppelin\nU(bus) = 0\n")
    with pytest.raises(analysis.UnknownVariable, match="zeppelin"):
        analysis.analyze_structure(spec, synth_data.dictionary)
    with pytest.raises(analysis.UnknownVariable):
        binding.bind(spec, synth_data)


def test_fixed_only_asc_is_not_counted_as_asc(synth_data):
    spec = parse_spec(
        "spec s\nalt car bus\nparam asc_car fixed 0\nparam b_t generic\n"
        "U(car) = asc_car + b_t * time_car\nU(bus) = b_t * time_bus\n"
    )
    stats = analysis.analyze_structure(spec, synth_data.dictionary)
    assert stats.has_asc is False
    report = validate.check_model(result_for(spec, {"b_t": -0.01}), spec, synth_data.dictionary)
    assert report.has_asc is stats.has_asc
    assert report.exclusion == validate.EXCLUDED_NO_ASC


# -- binding ------------------------------------------------------------------


def test_bind_shapes(best_model):
    assert best_model.n_obs == 1000
    assert best_model.n_alts == 4
    assert best_model.n_free == 7
    assert best_model.avail.shape == (1000, 4)
    assert best_model.avail.dtype == bool


def test_bind_missing_alternative(synth_data):
    spec = parse_spec("spec s\nalt car tram\nparam b_t\nU(car) = b_t * time_car\nU(tram) = 0\n")
    with pytest.raises(binding.MissingAlternative, match="tram"):
        binding.bind(spec, synth_data)


FOUR_ALT_HEAD = "spec s\nalt car bus air rail\n"
ZERO_TAIL = "U(bus) = 0\nU(air) = 0\nU(rail) = 0\n"


def test_bind_rejects_log_of_zero_cells(synth_data):
    # rows with car unavailable carry time_car = 0, but those rows do not
    # count; bus is available on rows where its cost is zeroed elsewhere,
    # so pick a column that is genuinely zero on an available row
    spec = parse_spec(
        FOUR_ALT_HEAD + "param b_t generic\nU(car) = b_t * log(business)\n" + ZERO_TAIL
    )
    with pytest.raises(binding.DomainViolation, match="log"):
        binding.bind(spec, synth_data)


def test_bind_ignores_zeros_on_unavailable_rows(synth_data):
    # time_car is zero only where car is unavailable; log is then legal
    spec = parse_spec(
        FOUR_ALT_HEAD + "param b_t generic\nU(car) = b_t * log(time_car)\n" + ZERO_TAIL
    )
    model = binding.bind(spec, synth_data)
    V = model.utility_matrix(np.zeros(1))
    assert math.isfinite(V[0, model.avail[:, 0]].sum())


def test_bind_allows_transform_of_positive_covariate(synth_data):
    spec = parse_spec(
        FOUR_ALT_HEAD + "param b_i generic\nU(car) = b_i * log(income)\n" + ZERO_TAIL
    )
    model = binding.bind(spec, synth_data)
    assert math.isfinite(model.utility_matrix(np.zeros(1)).sum())


def test_piecewise_segments_sum_to_x():
    x = np.array([0.0, 10.0, 45.0, 80.0, 200.0])
    seg = binding.piecewise_segments(x, (30.0, 60.0))
    assert seg.shape == (5, 3)
    np.testing.assert_allclose(seg.sum(axis=1), x)
    np.testing.assert_allclose(seg[:, 0], np.minimum(x, 30.0))
    np.testing.assert_allclose(seg[:, 2], np.maximum(x - 60.0, 0.0))


def test_evaluate_expr_matches_numpy():
    columns = {"x": np.array([1.0, 4.0])}
    tree = parse_expression("log(x) + sqrt(x) * 2 - pow(x, 2)", set())
    compiled = binding.compile_expr(tree, columns, (), {})
    got, derivative = compiled(binding.ALL_ROWS, None, None)
    x = columns["x"]
    np.testing.assert_allclose(got, np.log(x) + np.sqrt(x) * 2 - x**2)
    assert derivative is None
    assert compiled(slice(1, 2), None, None)[0].tolist() == [got[1]]


def test_boxcox_at_zero_shape_matches_log_limit():
    columns = {"x": np.array([0.5, 2.0, 7.0])}
    tree = parse_expression("boxcox(x, lambda_s)", {"lambda_s"})
    free = binding.compile_expr(tree, columns, ("lambda_s",), {})
    at_zero, _ = free(binding.ALL_ROWS, [0.0], None)
    np.testing.assert_allclose(at_zero, np.log(columns["x"]))
    fixed = binding.compile_expr(tree, columns, (), {"lambda_s": 0.0})(binding.ALL_ROWS, None, None)[0]
    assert fixed.tobytes() == at_zero.tobytes()
    tiny, _ = free(binding.ALL_ROWS, [1e-9], None)
    np.testing.assert_allclose(tiny, at_zero, atol=1e-8)
