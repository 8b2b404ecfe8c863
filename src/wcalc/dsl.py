"""Script language for sequence definitions and checks.

program := stmt*
stmt    := ("seq"|"exp"|"matrix"|"omega") IDENT "=" call ";"
         | ("check"|"compare"|"eval"|"classify"|"mcheck") call opts ";"
call    := IDENT "(" [arg ("," arg)*] ")"
arg     := IDENT "=" value | value
value   := NUMBER | IDENT | "[" value ("," value)* "]"
opts    := ("horizon" INTEGER | "grid" list | "flavor" IDENT)*

'#' starts a comment.  Names are resolved at parse time, so a script
that parses cannot fail on a missing or rebound name later; the kind of
binding each name refers to is checked when its statement runs.
A query takes each option at most once, and only the options its
operation reads (SIGNATURES); every query takes horizon.

NUMBER is an optional sign, a run of digits and dots, and an optional
exponent ([eE], an optional sign, digits), and must read as a finite
float.  One compiled regex scans the tokens (_Scanner), in batches that
end at a "[".  There the parser first tries the list as one block: a
span up to the next "]" that holds only number characters, commas and
blanks, and whose comma-separated items all read as finite floats, is
exactly a list of NUMBER tokens, so it is read with str.split and float
and no token is made.  Any other list (a name, a nested list, a comment,
a malformed or non-finite literal, an empty item) is read token by
token, which raises the error of the token path.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Callable

from .config import Config
from .errors import SourceError, WcalcError
from . import associated as _assoc
from . import conditions as _conditions
from . import matrices as _matrices
from . import relations as _relations
from . import sequences as _sequences
from . import witness as _witness

BINDING_KINDS = ("seq", "exp", "matrix", "omega")
QUERY_KINDS = ("check", "compare", "eval", "classify", "mcheck")
OPT_KEYS = ("horizon", "grid", "flavor")


# ---------------------------------------------------------------------------
# signatures: one table for constructors and query operations

# Parameter types.  Any other type names the kind of binding a reference
# must point to; BOUNDS takes derivative-bound data, which a theta_bounds
# binding holds under seq.
NUMBER, INT, NUMBERS = "number", "int", "numbers"
LOG_GRID = "log_grid"   # [t_min, t_max, points]
NAME = "name"
BOUNDS = "bounds"
_REQUIRED = object()


class Param:
    __slots__ = ("name", "type", "default")

    def __init__(self, name: str, type: str, default: object = _REQUIRED) -> None:
        self.name = name
        self.type = type
        self.default = default

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def _to_json(v, *_):
    return v.to_json()


class Signature:
    """A constructor or query operation: its parameters, its target
    target(cfg, h, *values), the shaper shape(result, *values) that turns
    a query result into record fields, and the query options it reads,
    which are converted like parameters and passed after them.

    Targets look up library functions when called, so a function replaced
    on its module (as a tracer does) is the one that runs."""

    __slots__ = ("params", "target", "shape", "opts")

    def __init__(self, params: tuple, target: Callable,
                 shape: Callable = _to_json, opts: tuple = ()) -> None:
        self.params = params
        self.target = target
        self.shape = shape
        self.opts = opts


def _record(*keys):
    """Shaper naming the parts of a tuple result, or a lone value."""
    return lambda r, *_: dict(zip(keys, r if isinstance(r, tuple) else (r,)))


def _mcheck(tag, mm, flavor, grid, h, seed):
    cond = _matrices.condition_id(tag, flavor or _matrices.ROUMIEU)
    return cond, _matrices.check_matrix_condition(mm, cond, grid, h, seed=seed)


def _matrix_record(cond_results, *_):
    out = _matrices.matrix_report_json(*cond_results)
    return {**out, "statuses": [e["status"] for e in out["per_index"]]}


_M, _N, _W = Param("m", "seq"), Param("n", "seq"), Param("w", "omega")
_BASE = Param("base", "seq")
_MM, _PHI, _F = Param("mm", "matrix"), Param("phi", "exp"), Param("f", BOUNDS)
_S, _TAU, _SIGMA = (Param(k, NUMBER) for k in ("s", "tau", "sigma"))
_INDEX_GRID = Param("grid", NUMBERS, _matrices.DEFAULT_INDEX_GRID)
_TRUNCATION = Param("truncation", INT, None)
_GRID, _LOG_GRID = Param("grid", NUMBERS, None), Param("grid", LOG_GRID, None)

# (statement keyword, name) -> Signature; the keyword of a constructor is
# the kind it builds.  Entry order is the order of QUERY_OPS and of the
# CLI family lists.
SIGNATURES = {
    ("seq", "gevrey"): Signature(
        (_S,), lambda cfg, h, *v: _sequences.gevrey(*v)),
    ("seq", "ptt"): Signature(
        (_TAU, _SIGMA), lambda cfg, h, *v: _sequences.ptt(*v)),
    ("seq", "table"): Signature(
        (Param("values", NUMBERS),), lambda cfg, h, *v: _sequences.table(*v)),
    ("seq", "scale"): Signature(
        (_BASE, _PHI, Param("c", NUMBER)),
        lambda cfg, h, *v: _sequences.scaled(*v)),
    ("seq", "from_omega"): Signature(
        (_W, Param("ell", NUMBER, 1.0)),
        lambda cfg, h, *v: _assoc.from_omega(*v)),
    ("seq", "theta_bounds"): Signature(
        (_N, Param("count", INT), _TRUNCATION),
        lambda cfg, h, *v: _witness.theta_bounds(*v)),
    ("exp", "linear"): Signature(
        (), lambda cfg, h: _sequences.linear_exponents()),
    ("exp", "power"): Signature(
        (_SIGMA,), lambda cfg, h, *v: _sequences.power_exponents(*v)),
    ("matrix", "ptt_matrix"): Signature(
        (_TAU, _SIGMA, _INDEX_GRID),
        lambda cfg, h, *v: _matrices.ptt_matrix(*v)),
    ("matrix", "sigma_matrix"): Signature(
        (_SIGMA, _INDEX_GRID), lambda cfg, h, *v: _matrices.sigma_matrix(*v)),
    # c -> c^(phi_j) * M^(c)_j: the base keeps its own grid unless one is given
    ("matrix", "matrix_scale"): Signature(
        (Param("base", "matrix"), _PHI, _GRID),
        lambda cfg, h, *v: _matrices.matrix_scale(*v)),
    # c -> c^(phi_j) * M_j from one sequence M
    ("matrix", "family_scale"): Signature(
        (_BASE, _PHI, _INDEX_GRID),
        lambda cfg, h, *v: _matrices.scale_family(*v)),
    ("omega", "assoc"): Signature(
        (_M,), lambda cfg, h, m: _assoc.OmegaFunction.from_sequence(m, cfg.horizon)),
    **{("check", c): Signature(
        (_M,), lambda cfg, h, m, c=c: _conditions.check_condition(
            m, c, h, seed=cfg.seed))
       for c in _conditions.CONDITIONS},
    ("check", "gamma_lb"): Signature(
        (_M, Param("alphas", NUMBERS)),
        lambda cfg, h, *v: _conditions.gamma_lower_bound(*v, h),
        lambda res, m, alphas: {
            "per_alpha": {repr(a): v.to_json() for a, v in res.items()},
            "statuses": [res[a].status for a in alphas]}),
    **{("mcheck", c): Signature(
        (_MM,), lambda cfg, h, *v, c=c: _mcheck(c, *v, h, cfg.seed),
        _matrix_record, (Param("flavor", NAME, None), _GRID))
       for c in _matrices.MATRIX_CONDITIONS},
    **{("compare", r): Signature(
        (_M, _N), lambda cfg, h, m, n, r=r: _relations.compare(m, n, r, h))
       for r in ("preceq", "triangle", "approx", "pointwise_le", "quotient_le")},
    **{("compare", r): Signature(
        (_M, _N, Param("c_max", INT, 4)), lambda cfg, h, m, n, c_max, r=r:
            _assoc.assoc_relation_check(m, n, r, c_max, h))
       for r in ("bigO", "smallO")},
    ("compare", "numeric_ratio"): Signature(
        (_M, _N), lambda cfg, h, m, n, grid: _assoc.assoc_relation_check(
            m, n, "numeric_ratio", horizon=h, grid=grid),
        opts=(_LOG_GRID,)),
    ("eval", "omega"): Signature(
        (_W, Param("t", NUMBER)), lambda cfg, h, w, t: w.eval(t, h),
        _record("value", "attained_at")),
    ("eval", "conjugate"): Signature(
        (_W, _S), lambda cfg, h, *v: _assoc.young_conjugate(*v, h),
        _record("value", "log_t_star"), (_LOG_GRID,)),
    ("eval", "recover"): Signature(
        (_W, Param("j", INT)), lambda cfg, h, *v: _assoc.recover_term(*v, h),
        _record("value"), (_LOG_GRID,)),
    ("eval", "theta"): Signature(
        (_N, Param("t", NUMBER), Param("truncation", INT, 40)),
        lambda cfg, h, *v: _witness.theta_eval(*v),
        _record("real", "imaginary")),
    ("eval", "theta_deriv"): Signature(
        (_N, Param("k", INT), _TRUNCATION),
        lambda cfg, h, *v: _witness.theta_derivative_log_bound(*v),
        _record("value")),
    ("eval", "seminorm"): Signature(
        (_F, _M, _PHI, Param("h", NUMBER)),
        lambda cfg, h, *v: _witness.seminorm(*v), _record("value")),
    ("classify", "membership"): Signature(
        (_F, _MM, Param("phi", "exp", None)),
        lambda cfg, h, *v: _witness.classify_membership(*v),
        lambda rep, *_: {**rep.to_json(), "statuses": [
            rep.roumieu.status, rep.beurling.status]}, (_GRID,)),
}

# constructor name -> kind of the bound result
CONSTRUCTORS = {name: kind for kind, name in SIGNATURES
                if kind in BINDING_KINDS}
QUERY_OPS = {q: tuple(name for kind, name in SIGNATURES if kind == q)
             for q in QUERY_KINDS}


# ---------------------------------------------------------------------------
# tokens


# kind is IDENT, NUMBER, PUNCT or EOF
Token = namedtuple("Token", "kind text line col")


def _scan_pattern(digits: str, nonalpha: str) -> re.Pattern:
    r"""The token regex, given the characters besides \d that str.isdigit
    takes (digits) and the word characters that str.isalpha does not
    (nonalpha): \w is exactly str.isalnum or "_", and \d str.isdecimal.
    It skips leading blanks, and the group that matched names the token."""
    num = rf"\d{digits}."
    return re.compile(
        r"[ \t\r]*(?:"
        r"(?P<NL>\n)"
        r"|(?P<COMMENT>#[^\n]*)"
        r"|(?P<PUNCT>[()=,;\[\]])"
        rf"|(?P<IDENT>(?![\d{nonalpha}])\w+)"
        rf"|(?P<NUMBER>[+-]?(?=[{num}])[{num}]*(?:[eE][+-]?[\d{digits}]+)?)"
        r"|(?P<EOF>\Z)"
        r"|(?P<OTHER>.))")


# in ASCII text \d is str.isdigit, and \w minus \d str.isalpha or "_"
_ASCII_SCAN = _scan_pattern("", "")
# a list of plain numbers, between its brackets
_PLAIN_LIST = re.compile(r"[0-9eE.+\-, \t\r\n]*")


def _finite(lit: str) -> bool:
    try:
        return math.isfinite(float(lit))
    except ValueError:
        return False


class _Scanner:
    """The tokens of a script, read by one compiled regex in batches that
    end at a "[" (so that a list may be read as one block) or at EOF.

    Columns count characters from 1, except that a comment does not
    advance them (so an EOF after a trailing comment sits at the "#")."""

    def __init__(self, text: str):
        self.text = text
        if text.isascii():
            pattern = _ASCII_SCAN
        else:
            odd = {ch for ch in set(text) if not ch.isascii()}
            pattern = _scan_pattern(
                "".join(sorted(ch for ch in odd if ch.isdigit())),
                "".join(sorted(ch for ch in odd
                               if ch.isalnum() and not ch.isalpha())))
        self._match = pattern.match
        self.pos = 0
        self.line = 1
        self.line_start = 0   # offset that column 1 of this line stands at

    def tokens(self) -> list[Token]:
        """The tokens from here through the next "[" or EOF."""
        text, match, make = self.text, self._match, Token._make
        pos, line, line_start = self.pos, self.line, self.line_start
        out = []
        while True:
            m = match(text, pos)
            kind = m.lastgroup
            start, pos = m.span(kind)
            if kind == "NL":
                line += 1
                line_start = pos
                continue
            if kind == "COMMENT":
                line_start += pos - start
                continue
            lit = m[kind]
            col = start - line_start + 1
            if kind == "OTHER":
                raise SourceError(f"unexpected character {lit!r}", line, col)
            if kind == "NUMBER" and not _finite(lit):
                raise SourceError(f"bad number literal {lit!r}", line, col)
            out.append(make((kind, lit, line, col)))
            if kind == "EOF" or lit == "[":
                self.pos, self.line, self.line_start = pos, line, line_start
                return out

    def numbers(self) -> tuple | None:
        """The values of a list of plain numbers whose "[" ended the last
        batch, read as one block through its "]"; None, reading
        nothing, when the list holds anything else (a name, a nested list,
        a comment, a malformed or non-finite literal, an empty item).
        Every item float() takes here is one NUMBER token."""
        text, start = self.text, self.pos
        end = text.find("]", start)
        if end < 0 or not _PLAIN_LIST.fullmatch(text, start, end):
            return None
        try:
            values = tuple(map(float, text[start:end].split(",")))
        except ValueError:
            return None
        if not math.isfinite(sum(values)):  # inf or nan in, or overflow
            return None
        newlines = text.count("\n", start, end)
        if newlines:
            self.line += newlines
            self.line_start = text.rindex("\n", start, end) + 1
        self.pos = end + 1
        return values


def tokenize(text: str) -> list[Token]:
    scan = _Scanner(text)
    out = scan.tokens()
    while out[-1].kind != "EOF":
        out += scan.tokens()
    return out


# ---------------------------------------------------------------------------
# AST


# Nodes compare and hash by value; a statement's line and col stay out of
# both, so the same script text parses to equal trees wherever it sits.


class Ref:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other) -> bool:
        return type(other) is Ref and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


class Call:
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple) -> None:
        self.name = name
        self.args = args  # of (keyword | None, value); value: float | Ref | tuple

    def __eq__(self, other) -> bool:
        return type(other) is Call and (self.name, self.args) == (other.name, other.args)

    def __hash__(self) -> int:
        return hash((self.name, self.args))


class Binding:
    __slots__ = ("kind", "name", "call", "line", "col")

    def __init__(self, kind: str, name: str, call: Call,
                 line: int = 0, col: int = 0) -> None:
        self.kind = kind
        self.name = name
        self.call = call
        self.line = line
        self.col = col

    def _key(self) -> tuple:
        return self.kind, self.name, self.call

    def __eq__(self, other) -> bool:
        return type(other) is Binding and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Query:
    __slots__ = ("kind", "call", "horizon", "grid", "flavor", "line", "col")

    def __init__(self, kind: str, call: Call, horizon: int | None = None,
                 grid: tuple | None = None, flavor: str | None = None,
                 line: int = 0, col: int = 0) -> None:
        self.kind = kind
        self.call = call
        self.horizon = horizon
        self.grid = grid
        self.flavor = flavor
        self.line = line
        self.col = col

    def _key(self) -> tuple:
        return self.kind, self.call, self.horizon, self.grid, self.flavor

    def __eq__(self, other) -> bool:
        return type(other) is Query and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Program:
    __slots__ = ("statements",)

    def __init__(self, statements: tuple) -> None:
        self.statements = statements


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent over a scanner: anything with tokens() and
    numbers() as _Scanner has them."""

    def __init__(self, scan):
        self.scan = scan
        self.toks = scan.tokens()
        self.pos = 0
        self.scope: dict[str, str] = {}  # name -> kind

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        if self.pos == len(self.toks):
            self.toks, self.pos = self.scan.tokens(), 0
        return tok

    def fail(self, message: str, tok: Token | None = None,
             expected: tuple = ()) -> SourceError:
        tok = tok or self.peek()
        return SourceError(message, tok.line, tok.col, expected)

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != ch:
            raise self.fail(f"expected {ch!r}, found {tok.text or 'end of input'!r}",
                            tok, expected=(ch,))
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail(f"expected {what}, found {tok.text or 'end of input'!r}",
                            tok, expected=("identifier",))
        return self.advance()

    def program(self) -> Program:
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.statement())
        return Program(tuple(stmts))

    def statement(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail(f"expected a statement keyword, found {tok.text!r}",
                            tok, expected=BINDING_KINDS + QUERY_KINDS)
        if tok.text in BINDING_KINDS:
            return self.binding()
        if tok.text in QUERY_KINDS:
            return self.query()
        raise self.fail(f"unknown statement keyword {tok.text!r}", tok,
                        expected=BINDING_KINDS + QUERY_KINDS)

    def binding(self) -> Binding:
        kw = self.advance()
        name_tok = self.expect_ident("a name")
        name = name_tok.text
        if name in self.scope:
            raise self.fail(f"name {name!r} is already bound", name_tok)
        if name in CONSTRUCTORS or name in BINDING_KINDS or name in QUERY_KINDS:
            raise self.fail(f"name {name!r} shadows a reserved word", name_tok)
        self.expect_punct("=")
        call_tok = self.peek()
        call = self.call()
        result_kind = CONSTRUCTORS.get(call.name)
        if result_kind is None:
            raise self.fail(f"unknown constructor {call.name!r}", call_tok,
                            expected=tuple(sorted(CONSTRUCTORS)))
        if result_kind != kw.text:
            raise self.fail(
                f"constructor {call.name!r} builds a {result_kind!r}, "
                f"bound under {kw.text!r}", call_tok)
        self.expect_punct(";")
        self.scope[name] = kw.text
        return Binding(kw.text, name, call, kw.line, kw.col)

    def query(self) -> Query:
        kw = self.advance()
        call_tok = self.peek()
        call = self.call()
        sig = SIGNATURES.get((kw.text, call.name))
        if sig is None:
            raise self.fail(f"unknown {kw.text} operation {call.name!r}",
                            call_tok, expected=QUERY_OPS[kw.text])
        takes = ("horizon",) + tuple(o.name for o in sig.opts)
        opts: dict = {}
        while self.peek().kind == "IDENT" and self.peek().text in OPT_KEYS:
            opt = self.advance()
            if opt.text not in takes:
                raise self.fail(f"option {opt.text!r} does not apply to "
                                f"{kw.text} {call.name}", opt, expected=takes)
            if opt.text in opts:
                raise self.fail(f"option {opt.text!r} given twice", opt)
            if opt.text == "horizon":
                num = self.peek()
                if num.kind != "NUMBER":
                    raise self.fail("horizon needs a number", num,
                                    expected=("number",))
                self.advance()
                if not float(num.text).is_integer():
                    raise self.fail(f"horizon needs an integer, got "
                                    f"{num.text}", num)
                opts["horizon"] = int(float(num.text))
            elif opt.text == "grid":
                tok = self.peek()
                if not (tok.kind == "PUNCT" and tok.text == "["):
                    raise self.fail("grid needs a list", tok, expected=("[",))
                opts["grid"] = self.value()
            else:
                opts["flavor"] = self.expect_ident("a flavor name").text
        self.expect_punct(";")
        return Query(kw.text, call, line=kw.line, col=kw.col, **opts)

    def call(self) -> Call:
        name = self.expect_ident("an operation name").text
        self.expect_punct("(")
        args = []
        if not (self.peek().kind == "PUNCT" and self.peek().text == ")"):
            args.append(self.arg())
            while self.peek().kind == "PUNCT" and self.peek().text == ",":
                self.advance()
                args.append(self.arg())
        self.expect_punct(")")
        return Call(name, tuple(args))

    def arg(self):
        nxt = self.toks[self.pos + 1] if self.pos + 1 < len(self.toks) else None
        if (self.peek().kind == "IDENT" and nxt is not None
                and nxt.kind == "PUNCT" and nxt.text == "="):
            key = self.advance().text
            self.advance()
            return (key, self.value())
        return (None, self.value())

    def value(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return float(tok.text)
        if tok.kind == "IDENT":
            self.advance()
            if tok.text not in self.scope:
                raise self.fail(f"unbound name {tok.text!r}", tok)
            return Ref(tok.text)
        if tok.kind == "PUNCT" and tok.text == "[":
            # a "[" ends its batch, so the scanner stands just past it
            block = self.scan.numbers()
            if block is not None:
                self.toks, self.pos = self.scan.tokens(), 0
                return block
            self.advance()
            items = [self.value()]
            while self.peek().kind == "PUNCT" and self.peek().text == ",":
                self.advance()
                items.append(self.value())
            self.expect_punct("]")
            return tuple(items)
        raise self.fail(f"expected a value, found {tok.text or 'end of input'!r}",
                        tok, expected=("number", "identifier", "["))


def parse(text: str) -> Program:
    """The program a script holds.  A script with a bad token anywhere
    raises the first such token's error, before any grammar error."""
    try:
        return _Parser(_Scanner(text)).program()
    except SourceError:
        tokenize(text)
        raise


# ---------------------------------------------------------------------------
# pretty printer


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _format_value(v) -> str:
    if isinstance(v, Ref):
        return v.name
    if isinstance(v, tuple):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    return _format_number(v)


def _format_call(call: Call) -> str:
    parts = []
    for key, v in call.args:
        text = _format_value(v)
        parts.append(f"{key}={text}" if key else text)
    return f"{call.name}({', '.join(parts)})"


def format_statement(stmt) -> str:
    if isinstance(stmt, Binding):
        return f"{stmt.kind} {stmt.name} = {_format_call(stmt.call)};"
    bits = [stmt.kind, _format_call(stmt.call)]
    for key in OPT_KEYS:
        v = getattr(stmt, key)
        if v is not None:
            bits.append(f"{key} {_format_value(v) if key == 'grid' else v}")
    return " ".join(bits) + ";"


def print_program(p: Program) -> str:
    return "\n".join(format_statement(s) for s in p.statements) + "\n"


# ---------------------------------------------------------------------------
# execution


def _integer(what: str, v: float) -> int:
    if not v.is_integer():
        raise WcalcError(f"{what} must be an integer")
    return int(v)


def _convert(op: str, p: Param, v, env: dict):
    """The value a call passes for parameter p, checked against its type;
    env maps names to (kind, object)."""
    t = p.type
    if t in (NUMBER, INT):
        if not isinstance(v, float):
            raise WcalcError(f"{p.name} must be a number")
        return _integer(p.name, v) if t == INT else v
    if t in (NUMBERS, LOG_GRID):
        if not isinstance(v, tuple) or not all(isinstance(x, float) for x in v):
            raise WcalcError(f"{p.name} must be a list of numbers")
        if t == NUMBERS:
            return v
        if len(v) != 3:
            raise WcalcError("grid option here means [t_min, t_max, points]")
        return _assoc.LogGrid(v[0], v[1], _integer("grid points", v[2]))
    if t == NAME:
        return v
    want = "seq" if t == BOUNDS else t
    if not isinstance(v, Ref):
        raise WcalcError(f"{op}: {p.name} must be a {want} name")
    kind, obj = env[v.name]
    if kind != want:
        raise WcalcError(f"{op}: {p.name} must be a {want}, "
                         f"{v.name!r} is a {kind}")
    if t == BOUNDS and not isinstance(obj, _witness.DerivBounds):
        what = "classify membership" if op == "membership" else op
        raise WcalcError(f"{what} needs derivative-bound data "
                         "(theta_bounds) as its first argument")
    if t != BOUNDS and isinstance(obj, _witness.DerivBounds):
        raise WcalcError(f"{op}: {p.name} must be a {want}, "
                         f"{v.name!r} is derivative-bound data")
    return obj


def _bind(call: Call, params: tuple, env: dict) -> list:
    """The value of each parameter of a call in order, defaults filled in."""
    name = call.name
    positional, named = [], {}
    for key, v in call.args:
        if key is None:
            if named:
                raise WcalcError(f"{name}: positional argument after a named one")
            positional.append(v)
        elif key in named:
            raise WcalcError(f"{name}: duplicate argument {key!r}")
        else:
            named[key] = v
    if len(positional) > len(params):
        raise WcalcError(f"{name}: takes at most {len(params)} arguments")
    got = {p.name: v for p, v in zip(params, positional)}
    for key, v in named.items():
        if key not in (p.name for p in params):
            raise WcalcError(f"{name}: unknown argument {key!r}")
        if key in got:
            raise WcalcError(f"{name}: duplicate argument {key!r}")
        got[key] = v
    for p in params:
        if p.required and p.name not in got:
            raise WcalcError(f"{name}: missing argument {p.name!r}")
    return [_convert(name, p, got[p.name], env) if p.name in got
            else p.default for p in params]


def build(call: Call, env: dict, cfg: Config):
    """The object a constructor call builds; env maps names to (kind, object)."""
    kind = CONSTRUCTORS.get(call.name)
    if kind is None:
        raise WcalcError(f"unknown constructor {call.name!r}")
    sig = SIGNATURES[kind, call.name]
    return sig.target(cfg, None, *_bind(call, sig.params, env))


def run_query(query: Query, env: dict, cfg: Config, h: int) -> dict:
    """The record fields answering one query at horizon h; env maps names
    to (kind, object)."""
    name = query.call.name
    sig = SIGNATURES.get((query.kind, name))
    if sig is None:
        raise WcalcError(f"unknown {query.kind} operation {name!r}")
    values = _bind(query.call, sig.params, env)
    for o in sig.opts:
        v = getattr(query, o.name)
        values.append(o.default if v is None else _convert(name, o, v, env))
    return sig.shape(sig.target(cfg, h, *values), *values)


def _releases(statements) -> list[list[str]]:
    """For each statement, the names whose values leave the env once it has
    run: values it reads for the last time (as a Ref among its call
    arguments; options never hold names), and values it binds that nothing
    reads.  The analysis is per value, so a name bound again releases each
    value after that value's own last reader; a value last read by the
    statement that rebinds its name goes when that statement replaces it."""
    out: list[list[str]] = [[] for _ in statements]
    last: dict[str, int] = {}  # name -> last statement binding or reading its value
    for i, stmt in enumerate(statements):
        for _, v in stmt.call.args:
            if isinstance(v, Ref) and v.name in last:
                last[v.name] = i
        if isinstance(stmt, Binding):
            j = last.pop(stmt.name, i)
            if j < i:
                out[j].append(stmt.name)
            last[stmt.name] = i
    for name, i in last.items():
        out[i].append(name)
    return out


def _release(kind: str, obj) -> None:
    # a matrix still read through a derived one (matrix_scale holds its
    # base) keeps its elements, but nothing reads its pair memo again
    if kind == "matrix" and obj is not None:
        obj.drop_checks()


def execute(program: Program, cfg: Config | None = None,
            horizon_override: int | None = None) -> list[dict]:
    """Evaluate bindings in order, run queries, one record per query.

    Operation errors become per-query error records and execution
    continues; a binding error poisons its name until a binding of that
    name succeeds, so queries and bindings touching it in between also
    produce error records.  horizon_override models a
    command-line flag and beats per-query horizon options.

    Each binding leaves the env right after its last reader has run (see
    _releases), poisoned ones too, so a script holds only the values a
    later statement still reads; a released matrix drops its pair memo.
    """
    cfg = cfg or Config()
    env: dict[str, tuple[str, object]] = {}
    poisoned: set[str] = set()
    records: list[dict] = []
    statements = program.statements
    for stmt, released in zip(statements, _releases(statements)):
        binding = isinstance(stmt, Binding)
        # "query" is filled in below, for the records that are kept
        record = {"query": None}
        record.update({"kind": "binding", "name": stmt.name} if binding
                      else {"kind": stmt.kind, "op": stmt.call.name})
        bad = next((v.name for _, v in stmt.call.args
                    if isinstance(v, Ref) and v.name in poisoned), None)
        try:
            if bad is not None:
                record["error"] = {"type": "PoisonedReference",
                                   "message": f"binding {bad!r} failed earlier"}
            elif binding:
                env[stmt.name] = (stmt.kind, build(stmt.call, env, cfg))
            else:
                h = next(x for x in (horizon_override, stmt.horizon,
                                     cfg.horizon) if x is not None)
                record.update(run_query(stmt, env, cfg, h))
        except (WcalcError, ValueError, ArithmeticError) as exc:
            record["error"] = {"type": type(exc).__name__,
                               "message": str(exc)}
        if binding and "error" in record:
            poisoned.add(stmt.name)
            env[stmt.name] = (stmt.kind, None)
        elif binding:
            poisoned.discard(stmt.name)
        if not binding or "error" in record:
            record["query"] = format_statement(stmt)
            records.append(record)
        for name in released:
            _release(*env.pop(name))
    return records
