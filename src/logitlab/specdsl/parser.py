"""Parser for the line-oriented specification format.

A file holds exactly one specification: a ``spec`` line naming it, one
``alt`` line listing alternatives, ``param`` declarations and one
``U(<alt>) = <expression>`` line per alternative.  ``#`` starts a comment
and a trailing backslash continues a line.

Parameters must be declared before use; identifiers with the reserved
prefixes in :data:`PARAM_PREFIXES` are never treated as dataset
variables, so a misspelled or undeclared coefficient fails here instead
of surfacing as an unknown column at bind time.

An expression nests at most :data:`MAX_DEPTH` levels, counted as the parser
descends and as the depth of the tree it builds (a long sum is a deep tree),
so no recursive walk over a parsed tree reaches Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from logitlab import LogitlabError
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
    depth,
    iter_nodes,
    param_names,
)

# Identifiers starting with any of these are reserved for parameters.
PARAM_PREFIXES = ("asc_", "b_", "beta_", "lambda_")

FUNCTIONS = ("log", "exp", "sqrt", "pow", "boxcox", "piecewise")

MAX_DEPTH = 100  # the shipped and recorded specs nest at most 6 levels
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


class SpecDslError(LogitlabError):
    """Base class for specification parsing and validation errors."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self) -> str:
        where = ""
        if self.line is not None:
            where = f"line {self.line}"
            if self.col is not None:
                where += f", col {self.col}"
            where += ": "
        return where + self.message


class DslSyntaxError(SpecDslError):
    pass


class UndeclaredParameter(SpecDslError):
    pass


class DuplicateParameter(SpecDslError):
    pass


class UnknownFunction(SpecDslError):
    pass


class SpecInvariantError(SpecDslError):
    """A structurally well-formed spec that violates a model invariant."""


@dataclass(frozen=True)
class ParameterDecl:
    """One declared parameter with its resolved role and scope.

    ``scope`` is either ``"generic"`` or the name of an alternative;
    ``fixed`` pins the value (the parameter is not estimated).
    """

    name: str
    role: str
    scope: str
    fixed: float | None = None
    start: float = 0.0


@dataclass(frozen=True)
class UtilitySpec:
    """A parsed specification, only its model: alternatives, parameters, utilities."""

    name: str
    alternatives: tuple[str, ...]
    parameters: tuple[ParameterDecl, ...]
    utilities: dict[str, Expr]

    def parameter(self, name: str) -> ParameterDecl:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def free_parameters(self) -> tuple[ParameterDecl, ...]:
        return tuple(p for p in self.parameters if p.fixed is None)

    @property
    def users(self) -> dict[str, list[str]]:
        return parameter_users(self.alternatives, self.utilities)

    @property
    def has_asc(self) -> bool:
        """Whether a free ASC is referenced; constants that are all fixed count as none."""
        users = self.users
        return any(p.role == "asc" and p.fixed is None and p.name in users for p in self.parameters)

    def to_json(self) -> str:
        """The spec's canonical text, as :func:`parse_spec` reads it back."""
        from logitlab.specdsl.serialize import serialize_spec  # serialize imports this module

        return serialize_spec(self)

    @classmethod
    def from_json(cls, text: str) -> UtilitySpec:
        # a module-level lookup, so bench/spans.py's wrapper on parse_spec sees the call
        return parse_spec(text)


def parameter_users(alternatives: tuple[str, ...], utilities: dict[str, Expr]) -> dict[str, list[str]]:
    """The alternatives whose utility references each parameter, in order; unused ones have no key."""
    users: dict[str, list[str]] = {}
    for alt in alternatives:
        for name in param_names(utilities[alt]):
            users.setdefault(name, []).append(alt)
    return users


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"

_TOKEN_RE = re.compile(
    rf"(?P<num>{_NUMBER})"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[()+\-*/,])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)"
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
# A whole signed number, as in ``fixed -1.5`` and in claims lines.
NUMBER_RE = re.compile(rf"[+-]?{_NUMBER}$")


def _finite(text: str, line: int, col: int | None = None) -> float:
    """The number ``text`` spells; a literal too large for a float is an error."""
    value = float(text)
    if not math.isfinite(value):
        raise DslSyntaxError(f"number out of range: {text}", line, col)
    return value


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise DslSyntaxError(f"unexpected character {m.group()!r}", line, m.start() + 1)
        tokens.append((kind, m.group(), m.start() + 1))
    return tokens


class _ExprParser:
    """Recursive-descent parser over a single expression's tokens."""

    def __init__(self, text: str, declared: set[str], line: int):
        self.tokens = _tokenize(text, line)
        self.pos = 0
        self.declared = declared
        self.line = line
        self.depth = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise DslSyntaxError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            col = tok[2] if tok else None
            raise DslSyntaxError(f"expected '{op}'", self.line, col)
        self.pos += 1

    def _at_op(self, *ops: str) -> bool:
        tok = self._peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    def _nested(self, parse) -> Expr:
        """``parse()`` one level deeper, refused beyond ``MAX_DEPTH`` levels."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise DslSyntaxError(_TOO_DEEP, self.line)
        expr = parse()
        self.depth -= 1
        return expr

    def parse(self) -> Expr:
        expr = self._nested(self._additive)
        tok = self._peek()
        if tok is not None:
            raise DslSyntaxError(f"unexpected {tok[1]!r}", self.line, tok[2])
        if depth(expr) > MAX_DEPTH:
            raise DslSyntaxError(_TOO_DEEP, self.line)
        return expr

    def _additive(self) -> Expr:
        expr = self._multiplicative()
        while self._at_op("+", "-"):
            op = self._next()[1]
            rhs = self._multiplicative()
            expr = Add(expr, rhs) if op == "+" else Sub(expr, rhs)
        return expr

    def _multiplicative(self) -> Expr:
        expr = self._unary()
        while self._at_op("*", "/"):
            op = self._next()[1]
            rhs = self._unary()
            expr = Mul(expr, rhs) if op == "*" else Div(expr, rhs)
        return expr

    def _unary(self) -> Expr:
        if not self._at_op("-", "+"):
            return self._atom()
        sign = self._next()[1]
        operand = self._nested(self._unary)
        if sign == "+":
            return operand
        # -2.5 is a negative literal, not a negation node, so that
        # serialized constants survive a round trip unchanged.
        if isinstance(operand, Const):
            return Const(-operand.value)
        return Neg(operand)

    def _atom(self) -> Expr:
        kind, text, col = self._next()
        if kind == "num":
            return Const(_finite(text, self.line, col))
        if kind == "op" and text == "(":
            inner = self._nested(self._additive)
            self._expect_op(")")
            return inner
        if kind == "name":
            if self._at_op("("):
                return self._call(text, col)
            return self._name(text, col)
        raise DslSyntaxError(f"unexpected {text!r}", self.line, col)

    def _name(self, name: str, col: int) -> Expr:
        if name in self.declared:
            return Param(name)
        if name.startswith(PARAM_PREFIXES):
            raise UndeclaredParameter(f"parameter '{name}' is not declared", self.line, col)
        return Var(name)

    def _param_name(self, what: str) -> str:
        kind, text, col = self._next()
        if kind != "name":
            raise DslSyntaxError(f"{what} must be a parameter name", self.line, col)
        if text not in self.declared:
            raise UndeclaredParameter(f"parameter '{text}' is not declared", self.line, col)
        return text

    def _call(self, fn: str, col: int) -> Expr:
        if fn not in FUNCTIONS:
            raise UnknownFunction(f"unknown function '{fn}'", self.line, col)
        self._expect_op("(")
        if fn == "piecewise":
            return self._piecewise(col)
        arg = self._nested(self._additive)
        if fn == "pow":
            self._expect_op(",")
            exponent = self._number("pow exponent")
            self._expect_op(")")
            return Pow(arg, exponent)
        if fn == "boxcox":
            self._expect_op(",")
            shape = self._param_name("box-cox shape")
            self._expect_op(")")
            return BoxCox(arg, shape)
        self._expect_op(")")
        return Call1(fn, arg)

    def _number(self, what: str) -> float:
        sign = 1.0
        while self._at_op("-") or self._at_op("+"):
            if self._next()[1] == "-":
                sign = -sign
        kind, text, col = self._next()
        if kind != "num":
            raise DslSyntaxError(f"{what} must be a number", self.line, col)
        return sign * _finite(text, self.line, col)

    def _piecewise(self, col: int) -> Expr:
        kind, text, vcol = self._next()
        if kind != "name":
            raise DslSyntaxError("piecewise variable must be an identifier", self.line, vcol)
        if text in self.declared or text.startswith(PARAM_PREFIXES):
            raise DslSyntaxError(
                "piecewise must be applied to a variable, not a parameter", self.line, vcol
            )
        var = text
        knots: list[float] = []
        while True:
            self._expect_op(",")
            tok = self._peek()
            if tok is not None and (tok[0] == "num" or (tok[0] == "op" and tok[1] in "+-")):
                knots.append(self._number("piecewise knot"))
            else:
                break
        if not knots:
            raise DslSyntaxError("piecewise needs at least one knot", self.line, col)
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise DslSyntaxError("piecewise knots must be strictly increasing", self.line, col)
        params = [self._param_name("piecewise slope")]
        while self._at_op(","):
            self._next()
            params.append(self._param_name("piecewise slope"))
        self._expect_op(")")
        if len(params) != len(knots) + 1:
            raise DslSyntaxError(
                f"piecewise with {len(knots)} knots needs {len(knots) + 1} slopes, "
                f"got {len(params)}",
                self.line,
                col,
            )
        return Piecewise(var, tuple(knots), tuple(params))


def parse_expression(text: str, declared: set[str], line: int = 1) -> Expr:
    """Parse a single expression against a set of declared parameters."""
    return _ExprParser(text, declared, line).parse()


_U_LINE_RE = re.compile(r"U\(([A-Za-z_][A-Za-z0-9_]*)\)\s*=\s*(.*)$")


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Strip comments, join backslash continuations, drop blanks."""
    out: list[tuple[int, str]] = []
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].rstrip()
        if pending:
            body = pending + " " + body.strip()
            lineno = pending_line
            pending = ""
        if body.endswith("\\"):
            pending = body[:-1].rstrip()
            pending_line = lineno
            continue
        if body.strip():
            out.append((lineno, body.strip()))
    if pending:
        out.append((pending_line, pending))
    return out


def _parse_param_line(words: list[str], line: int):
    """Name, scope, fixed value, start value, and every alternative named after ``alt``."""
    if len(words) < 2:
        raise DslSyntaxError("param needs a name", line)
    name = words[1]
    if not _IDENT_RE.match(name):
        raise DslSyntaxError(f"invalid parameter name {name!r}", line)
    scope: str | None = None
    fixed: float | None = None
    start: float | None = None
    named_alts: list[str] = []
    i = 2
    while i < len(words):
        word = words[i]
        if word == "generic":
            scope = "generic"
            i += 1
        elif word in ("alt", "fixed", "start"):
            if i + 1 >= len(words):
                raise DslSyntaxError(f"'{word}' needs a value", line)
            value = words[i + 1]
            if word == "alt":
                named_alts.append(value)
                scope = value
            else:
                if not NUMBER_RE.match(value):
                    raise DslSyntaxError(f"'{word}' needs a number, got {value!r}", line)
                if word == "fixed":
                    fixed = _finite(value, line)
                else:
                    start = _finite(value, line)
            i += 2
        else:
            raise DslSyntaxError(f"unexpected '{word}' in param declaration", line)
    return name, scope, fixed, start, named_alts


def additive_terms(expr: Expr, sign: int = 1) -> list[tuple[int, Expr]]:
    if isinstance(expr, Add):
        return additive_terms(expr.left, sign) + additive_terms(expr.right, sign)
    if isinstance(expr, Sub):
        return additive_terms(expr.left, sign) + additive_terms(expr.right, -sign)
    if isinstance(expr, Neg):
        return additive_terms(expr.operand, -sign)
    return [(sign, expr)]


def _check_asc_usage(name: str, uses: list[str], utilities: dict[str, Expr], u_lines: dict[str, int]) -> None:
    for alt in uses:
        expr = utilities[alt]
        total = sum(
            1
            for node in iter_nodes(expr)
            if (isinstance(node, Param) and node.name == name)
            or (isinstance(node, BoxCox) and node.shape == name)
            or (isinstance(node, Piecewise) and name in node.params)
        )
        bare = sum(
            1 for _, term in additive_terms(expr) if isinstance(term, Param) and term.name == name
        )
        if bare != total:
            raise SpecInvariantError(
                f"ASC '{name}' must appear only as an additive term", u_lines[alt]
            )
    if len(uses) > 1:
        raise SpecInvariantError(
            f"ASC '{name}' appears in utilities of {', '.join(uses)}; "
            "an ASC belongs to exactly one alternative",
            u_lines[uses[1]],
        )


def parse_spec(text: str) -> UtilitySpec:
    """Parse a complete specification file; every comment, provenance too, is skipped.

    Raises one of the :class:`SpecDslError` subclasses with a line number
    on any malformed input; never returns a partially built spec.
    """
    lines = _logical_lines(text)

    name: str | None = None
    alts: tuple[str, ...] = ()
    decls: dict[str, tuple[int, str | None, float | None, float | None]] = {}
    decl_order: list[str] = []
    u_texts: dict[str, tuple[int, str]] = {}
    alt_scopes: list[tuple[str, int]] = []  # (alternative, line) of each `param ... alt <name>`

    # Declarations first, utilities second, so parameters may be declared
    # anywhere in the file relative to the utilities that use them.
    for lineno, body in lines:
        words = body.split()
        head = words[0]
        if head == "spec":
            if name is not None:
                raise DslSyntaxError("duplicate spec line", lineno)
            if len(words) != 2:
                raise DslSyntaxError("spec needs exactly one name", lineno)
            if not _IDENT_RE.match(words[1]):
                raise DslSyntaxError(f"invalid spec name {words[1]!r}", lineno)
            name = words[1]
        elif head == "alt":
            if alts:
                raise DslSyntaxError("duplicate alt line", lineno)
            if len(words) < 2:
                raise DslSyntaxError("alt needs at least one alternative", lineno)
            ids = words[1:]
            for a in ids:
                if not _IDENT_RE.match(a):
                    raise DslSyntaxError(f"invalid alternative name {a!r}", lineno)
            if len(set(ids)) != len(ids):
                raise DslSyntaxError("duplicate alternative", lineno)
            alts = tuple(ids)
        elif head == "param":
            pname, scope, fixed, start, named_alts = _parse_param_line(words, lineno)
            if pname in decls:
                raise DuplicateParameter(f"parameter '{pname}' declared twice", lineno)
            alt_scopes.extend((a, lineno) for a in named_alts)
            decls[pname] = (lineno, scope, fixed, start)
            decl_order.append(pname)
        elif head.startswith("U(") or head.startswith("U "):
            m = _U_LINE_RE.match(body)
            if not m:
                raise DslSyntaxError("malformed utility line, expected U(<alt>) = <expr>", lineno)
            alt, rhs = m.group(1), m.group(2)
            if alt in u_texts:
                raise DslSyntaxError(f"duplicate utility for alternative '{alt}'", lineno)
            if not rhs.strip():
                raise DslSyntaxError(f"empty utility for alternative '{alt}'", lineno)
            u_texts[alt] = (lineno, rhs)
        else:
            raise DslSyntaxError(f"unknown directive '{head}'", lineno)

    if name is None:
        raise DslSyntaxError("missing spec line", 1)
    if not alts:
        raise DslSyntaxError("missing alt line", 1)
    for alt, lineno in alt_scopes:
        if alt not in alts:
            raise DslSyntaxError(f"unknown alternative {alt!r}", lineno)
    for alt, (lineno, _) in u_texts.items():
        if alt not in alts:
            raise DslSyntaxError(f"utility for undeclared alternative '{alt}'", lineno)
    for alt in alts:
        if alt not in u_texts:
            raise DslSyntaxError(f"no utility for alternative '{alt}'", 1)

    declared = set(decls)
    utilities = {alt: parse_expression(u_texts[alt][1], declared, u_texts[alt][0]) for alt in alts}
    u_lines = {alt: u_texts[alt][0] for alt in alts}

    # Roles: box-cox usage outranks the asc_ naming convention.
    shapes = {node.shape for expr in utilities.values() for node in iter_nodes(expr) if isinstance(node, BoxCox)}
    users = parameter_users(alts, utilities)

    params: list[ParameterDecl] = []
    asc_by_alt: dict[str, str] = {}
    for pname in decl_order:
        lineno, scope, fixed, start = decls[pname]
        if pname in shapes:
            role = "shape"
        elif pname.startswith("asc_"):
            role = "asc"
        else:
            role = "taste"
        uses = users.get(pname, [])
        if role == "asc":
            _check_asc_usage(pname, uses, utilities, u_lines)
        if scope is None:
            scope = uses[0] if len(uses) == 1 else "generic"
        if role == "asc" and uses:
            alt = uses[0]
            if alt in asc_by_alt:
                raise SpecInvariantError(
                    f"alternative '{alt}' has two ASCs: {asc_by_alt[alt]} and {pname}",
                    u_lines[alt],
                )
            asc_by_alt[alt] = pname
        if start is None:
            start = fixed if fixed is not None else (1.0 if role == "shape" else 0.0)
        elif fixed is not None:
            start = fixed
        params.append(ParameterDecl(pname, role, scope, fixed, start))

    return UtilitySpec(name, alts, tuple(params), utilities)
