"""Script language for sequence definitions and checks.

program := stmt*
stmt    := ("seq"|"exp"|"matrix"|"omega") IDENT "=" call ";"
         | ("check"|"compare"|"eval"|"classify"|"mcheck") call opts ";"
call    := IDENT "(" [arg ("," arg)*] ")"
arg     := IDENT "=" value | value
value   := NUMBER | IDENT | "[" value ("," value)* "]"
opts    := ("horizon" NUMBER | "grid" list | "flavor" IDENT)*

'#' starts a comment.  Names are resolved and kind-checked at parse time:
a script that parses cannot fail on a missing or rebound name later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# constructor name -> kind of the bound result
CONSTRUCTORS = {
    "gevrey": "seq",
    "ptt": "seq",
    "table": "seq",
    "scale": "seq",
    "from_omega": "seq",
    "theta_bounds": "seq",   # derivative-bound data rides under seq
    "power": "exp",
    "linear": "exp",
    "ptt_matrix": "matrix",
    "sigma_matrix": "matrix",
    "matrix_scale": "matrix",
    "family_scale": "matrix",
    "assoc": "omega",
}

QUERY_OPS = {
    "check": ("lc", "slc", "normalized", "mg", "dc", "nq", "nq_carleman",
              "beta1", "beta3", "gamma1", "gamma_lb"),
    "mcheck": _matrices.MATRIX_CONDITIONS,
    "compare": ("preceq", "triangle", "approx", "pointwise_le",
                "quotient_le", "bigO", "smallO", "numeric_ratio"),
    "eval": ("omega", "conjugate", "recover", "theta", "theta_deriv",
             "seminorm"),
    "classify": ("membership",),
}


# ---------------------------------------------------------------------------
# tokens

_PUNCT = "()=,;[]"


@dataclass(frozen=True)
class Token:
    kind: str           # IDENT | NUMBER | PUNCT | EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            out.append(Token("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or ch == "." or (ch in "+-" and i + 1 < n
                                         and (text[i + 1].isdigit()
                                              or text[i + 1] == ".")):
            j = i
            if text[j] in "+-":
                j += 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise SourceError(f"bad number literal {lit!r}",
                                  start_line, start_col)
            out.append(Token("NUMBER", lit, start_line, start_col))
            col += j - i
            i = j
            continue
        raise SourceError(f"unexpected character {ch!r}", start_line, start_col)
    out.append(Token("EOF", "", line, col))
    return out


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple  # of (keyword | None, value); value: float | Ref | tuple


@dataclass(frozen=True)
class Binding:
    kind: str
    name: str
    call: Call
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Query:
    kind: str
    call: Call
    horizon: int | None = None
    grid: tuple | None = None
    flavor: str | None = None
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Program:
    statements: tuple
    productions: frozenset = field(compare=False, default=frozenset())


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.productions: set[str] = set()
        self.scope: dict[str, str] = {}  # name -> kind

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
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
        self.productions.add("program")
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.statement())
        return Program(tuple(stmts), frozenset(self.productions))

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
        self.productions.add("binding")
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
        self._check_overloads(call, call_tok)
        self.expect_punct(";")
        self.scope[name] = kw.text
        return Binding(kw.text, name, call, kw.line, kw.col)

    def _check_overloads(self, call: Call, tok: Token) -> None:
        if call.name != "matrix_scale":
            return
        ref = next((v for _, v in call.args if isinstance(v, Ref)), None)
        if ref is not None and self.scope.get(ref.name) not in ("seq", "matrix"):
            raise self.fail(
                f"matrix_scale needs a seq or matrix referent, "
                f"{ref.name!r} is {self.scope.get(ref.name)!r}", tok)

    def query(self) -> Query:
        self.productions.add("query")
        kw = self.advance()
        call_tok = self.peek()
        call = self.call()
        ops = QUERY_OPS[kw.text]
        if call.name not in ops:
            raise self.fail(f"unknown {kw.text} operation {call.name!r}",
                            call_tok, expected=tuple(ops))
        horizon = None
        grid = None
        flavor = None
        while self.peek().kind == "IDENT" and self.peek().text in OPT_KEYS:
            opt = self.advance()
            if opt.text == "horizon":
                self.productions.add("opt_horizon")
                num = self.peek()
                if num.kind != "NUMBER":
                    raise self.fail("horizon needs a number", num,
                                    expected=("number",))
                self.advance()
                horizon = int(float(num.text))
            elif opt.text == "grid":
                self.productions.add("opt_grid")
                tok = self.peek()
                if not (tok.kind == "PUNCT" and tok.text == "["):
                    raise self.fail("grid needs a list", tok, expected=("[",))
                grid = self.value()
            else:
                self.productions.add("opt_flavor")
                flavor = self.expect_ident("a flavor name").text
        self.expect_punct(";")
        return Query(kw.text, call, horizon, grid, flavor, kw.line, kw.col)

    def call(self) -> Call:
        self.productions.add("call")
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
            self.productions.add("arg_named")
            key = self.advance().text
            self.advance()
            return (key, self.value())
        self.productions.add("arg_positional")
        return (None, self.value())

    def value(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.productions.add("value_number")
            self.advance()
            return float(tok.text)
        if tok.kind == "IDENT":
            self.productions.add("value_ref")
            self.advance()
            if tok.text not in self.scope:
                raise self.fail(f"unbound name {tok.text!r}", tok)
            return Ref(tok.text)
        if tok.kind == "PUNCT" and tok.text == "[":
            self.productions.add("value_list")
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
    return _Parser(tokenize(text)).program()


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
    if stmt.horizon is not None:
        bits.append(f"horizon {stmt.horizon}")
    if stmt.grid is not None:
        bits.append(f"grid {_format_value(stmt.grid)}")
    if stmt.flavor is not None:
        bits.append(f"flavor {stmt.flavor}")
    return " ".join(bits) + ";"


def print_program(p: Program) -> str:
    return "\n".join(format_statement(s) for s in p.statements) + "\n"


# ---------------------------------------------------------------------------
# execution


class _Args:
    """Positional/keyword argument matcher for constructor and query calls."""

    def __init__(self, call: Call, env: dict):
        self.call = call
        self.env = env
        self.positional = []
        self.named = {}
        for key, v in call.args:
            if key is None:
                if self.named:
                    raise WcalcError(
                        f"{call.name}: positional argument after a named one")
                self.positional.append(v)
            else:
                if key in self.named:
                    raise WcalcError(f"{call.name}: duplicate argument {key!r}")
                self.named[key] = v

    def bind(self, *names, required: int | None = None):
        if len(self.positional) > len(names):
            raise WcalcError(
                f"{self.call.name}: takes at most {len(names)} arguments")
        got = {}
        for i, v in enumerate(self.positional):
            got[names[i]] = v
        for key, v in self.named.items():
            if key not in names:
                raise WcalcError(f"{self.call.name}: unknown argument {key!r}")
            if key in got:
                raise WcalcError(f"{self.call.name}: duplicate argument {key!r}")
            got[key] = v
        need = names if required is None else names[:required]
        for name in need:
            if name not in got:
                raise WcalcError(f"{self.call.name}: missing argument {name!r}")
        return [got.get(name) for name in names]

    def resolve(self, v, kind: str | None = None, what: str = "argument"):
        if v is None:
            return None
        if isinstance(v, Ref):
            bound_kind, obj = self.env[v.name]
            if kind is not None and bound_kind != kind:
                raise WcalcError(
                    f"{self.call.name}: {what} must be a {kind}, "
                    f"{v.name!r} is a {bound_kind}")
            return obj
        return v

    @staticmethod
    def number(v, what: str) -> float:
        if not isinstance(v, float):
            raise WcalcError(f"{what} must be a number")
        return v

    @staticmethod
    def number_list(v, what: str) -> tuple:
        if not isinstance(v, tuple) or not all(isinstance(x, float) for x in v):
            raise WcalcError(f"{what} must be a list of numbers")
        return v


def build(call: Call, env: dict, cfg: Config):
    """The object a constructor call builds; env maps names to (kind, object)."""
    a = _Args(call, env)
    name = call.name
    if name == "gevrey":
        (s,) = a.bind("s")
        return _sequences.gevrey(a.number(s, "s"))
    if name == "ptt":
        tau, sigma = a.bind("tau", "sigma")
        return _sequences.ptt(a.number(tau, "tau"), a.number(sigma, "sigma"))
    if name == "table":
        (values,) = a.bind("values")
        return _sequences.table(a.number_list(values, "values"))
    if name == "scale":
        base, phi, c = a.bind("base", "phi", "c")
        return _sequences.scaled(a.resolve(base, "seq", "base"),
                                 a.resolve(phi, "exp", "phi"),
                                 a.number(c, "c"))
    if name == "power":
        (sigma,) = a.bind("sigma")
        return _sequences.power_exponents(a.number(sigma, "sigma"))
    if name == "linear":
        a.bind()
        return _sequences.linear_exponents()
    if name == "ptt_matrix":
        tau, sigma, grid = a.bind("tau", "sigma", "grid", required=2)
        grid = a.number_list(grid, "grid") if grid is not None \
            else _matrices.DEFAULT_INDEX_GRID
        return _matrices.ptt_matrix(a.number(tau, "tau"),
                                    a.number(sigma, "sigma"), grid)
    if name == "sigma_matrix":
        sigma, grid = a.bind("sigma", "grid", required=1)
        grid = a.number_list(grid, "grid") if grid is not None \
            else _matrices.DEFAULT_INDEX_GRID
        return _matrices.sigma_matrix(a.number(sigma, "sigma"), grid)
    if name == "matrix_scale":
        base, phi, grid = a.bind("base", "phi", "grid", required=2)
        phi_obj = a.resolve(phi, "exp", "phi")
        if isinstance(base, Ref) and env[base.name][0] == "matrix":
            base_obj = a.resolve(base, "matrix", "base")
            grid = a.number_list(grid, "grid") if grid is not None else None
            return _matrices.matrix_scale(base_obj, phi_obj, grid)
        base_obj = a.resolve(base, "seq", "base")
        grid = a.number_list(grid, "grid") if grid is not None \
            else _matrices.DEFAULT_INDEX_GRID
        return _matrices.scale_family(base_obj, phi_obj, grid)
    if name == "family_scale":
        base, phi, grid = a.bind("base", "phi", "grid", required=2)
        grid = a.number_list(grid, "grid") if grid is not None \
            else _matrices.DEFAULT_INDEX_GRID
        return _matrices.exponent_family_scale(
            a.resolve(base, "seq", "base"),
            _sequences.constant_family(a.resolve(phi, "exp", "phi")),
            grid)
    if name == "assoc":
        (m,) = a.bind("m")
        return _assoc.OmegaFunction.from_sequence(
            a.resolve(m, "seq", "m"), cfg=cfg)
    if name == "from_omega":
        w, ell = a.bind("w", "ell", required=1)
        ell = a.number(ell, "ell") if ell is not None else 1.0
        return _assoc.from_omega(a.resolve(w, "omega", "w"), ell, cfg=cfg)
    if name == "theta_bounds":
        n, count, truncation = a.bind("n", "count", "truncation", required=2)
        truncation = int(a.number(truncation, "truncation")) \
            if truncation is not None else None
        return _witness.theta_bounds(a.resolve(n, "seq", "n"),
                                     int(a.number(count, "count")),
                                     truncation, cfg)
    raise WcalcError(f"unknown constructor {name!r}")


def _log_grid_from_opt(grid, cfg: Config) -> _assoc.LogGrid:
    if grid is None:
        return _assoc.LogGrid.from_config(cfg)
    vals = _Args.number_list(grid, "grid")
    if len(vals) != 3:
        raise WcalcError("grid option here means [t_min, t_max, points]")
    return _assoc.LogGrid(vals[0], vals[1], int(vals[2]))


def _run_check(q: Query, env: dict, cfg: Config, h: int) -> dict:
    a = _Args(q.call, env)
    if q.call.name == "gamma_lb":
        m, alphas = a.bind("m", "alphas")
        seq = a.resolve(m, "seq", "m")
        alphas = a.number_list(alphas, "alphas")
        res = _conditions.gamma_lower_bound(seq, alphas, h, cfg)
        return {"per_alpha": {repr(al): v.to_json() for al, v in res.items()},
                "statuses": [res[al].status for al in alphas]}
    (m,) = a.bind("m")
    seq = a.resolve(m, "seq", "m")
    v = _conditions.check_condition(seq, q.call.name, h, cfg)
    return v.to_json()


def _run_mcheck(q: Query, env: dict, cfg: Config, h: int) -> dict:
    a = _Args(q.call, env)
    (mm,) = a.bind("mm")
    matrix = a.resolve(mm, "matrix", "mm")
    cond = _matrices.condition_id(q.call.name, q.flavor or _matrices.ROUMIEU)
    grid = _Args.number_list(q.grid, "grid") if q.grid is not None else None
    res = _matrices.check_matrix_condition(matrix, cond, grid, h, cfg)
    out = _matrices.matrix_report_json(cond, res)
    out["statuses"] = [res[alpha].status for alpha in sorted(res)]
    return out


def _run_compare(q: Query, env: dict, cfg: Config, h: int) -> dict:
    a = _Args(q.call, env)
    name = q.call.name
    if name in ("bigO", "smallO"):
        m, n, c_max = a.bind("m", "n", "c_max", required=2)
        c_max = int(a.number(c_max, "c_max")) if c_max is not None else 4
        v = _assoc.assoc_relation_check(
            a.resolve(m, "seq", "m"), a.resolve(n, "seq", "n"),
            name, c_max, h, cfg=cfg)
        return v.to_json()
    if name == "numeric_ratio":
        m, n = a.bind("m", "n")
        grid = None if q.grid is None else _log_grid_from_opt(q.grid, cfg)
        v = _assoc.assoc_relation_check(
            a.resolve(m, "seq", "m"), a.resolve(n, "seq", "n"),
            "numeric_ratio", horizon=h, grid=grid, cfg=cfg)
        return v.to_json()
    m, n = a.bind("m", "n")
    v = _relations.compare(a.resolve(m, "seq", "m"),
                           a.resolve(n, "seq", "n"), name, h, cfg)
    return v.to_json()


def _run_eval(q: Query, env: dict, cfg: Config, h: int) -> dict:
    a = _Args(q.call, env)
    name = q.call.name
    if name == "omega":
        w, t = a.bind("w", "t")
        omega = a.resolve(w, "omega", "w")
        got = omega.eval(a.number(t, "t"), h, cfg)
        return {"value": got.value, "attained_at": got.attained_at}
    if name == "conjugate":
        w, s = a.bind("w", "s")
        omega = a.resolve(w, "omega", "w")
        grid = None if q.grid is None else _log_grid_from_opt(q.grid, cfg)
        got = _assoc.young_conjugate(omega, a.number(s, "s"), grid, h, cfg)
        return {"value": got.value, "log_t_star": got.log_t_star}
    if name == "recover":
        w, j = a.bind("w", "j")
        omega = a.resolve(w, "omega", "w")
        grid = None if q.grid is None else _log_grid_from_opt(q.grid, cfg)
        return {"value": _assoc.recover_term(
            omega, int(a.number(j, "j")), grid, h, cfg)}
    if name == "theta":
        n, t, truncation = a.bind("n", "t", "truncation", required=2)
        truncation = int(a.number(truncation, "truncation")) \
            if truncation is not None else 40
        re, im = _witness.theta_eval(a.resolve(n, "seq", "n"),
                                     a.number(t, "t"), truncation, cfg)
        return {"real": re, "imaginary": im}
    if name == "theta_deriv":
        n, k, truncation = a.bind("n", "k", "truncation", required=2)
        truncation = int(a.number(truncation, "truncation")) \
            if truncation is not None else None
        return {"value": _witness.theta_derivative_log_bound(
            a.resolve(n, "seq", "n"), int(a.number(k, "k")), truncation, cfg)}
    if name == "seminorm":
        f, m, phi, hval = a.bind("f", "m", "phi", "h", required=4)
        bounds = a.resolve(f, "seq", "f")
        if not isinstance(bounds, _witness.DerivBounds):
            raise WcalcError("seminorm needs derivative-bound data "
                             "(theta_bounds) as its first argument")
        return {"value": _witness.seminorm(
            bounds, a.resolve(m, "seq", "m"), a.resolve(phi, "exp", "phi"),
            a.number(hval, "h"))}
    raise WcalcError(f"unknown eval operation {name!r}")


def _run_classify(q: Query, env: dict, cfg: Config, h: int) -> dict:
    a = _Args(q.call, env)
    f, mm, phi = a.bind("f", "mm", "phi", required=2)
    bounds = a.resolve(f, "seq", "f")
    if not isinstance(bounds, _witness.DerivBounds):
        raise WcalcError("classify membership needs derivative-bound data "
                         "(theta_bounds) as its first argument")
    matrix = a.resolve(mm, "matrix", "mm")
    phi_obj = a.resolve(phi, "exp", "phi") if phi is not None else None
    grid = _Args.number_list(q.grid, "grid") if q.grid is not None else None
    rep = _witness.classify_membership(bounds, matrix, phi_obj, grid, cfg=cfg)
    out = rep.to_json()
    out["statuses"] = [rep.roumieu.status, rep.beurling.status]
    return out


_QUERY_RUNNERS = {
    "check": _run_check,
    "mcheck": _run_mcheck,
    "compare": _run_compare,
    "eval": _run_eval,
    "classify": _run_classify,
}


def run_query(query: Query, env: dict, cfg: Config, h: int) -> dict:
    """The record fields answering one query at horizon h; env maps names
    to (kind, object)."""
    return _QUERY_RUNNERS[query.kind](query, env, cfg, h)


def execute(program: Program, cfg: Config | None = None,
            horizon_override: int | None = None) -> list[dict]:
    """Evaluate bindings in order, run queries, one record per query.

    Operation errors become per-query error records and execution
    continues; a binding error poisons its name, so queries touching it
    also produce error records.  horizon_override models a command-line
    flag and beats per-query horizon options.
    """
    cfg = cfg or Config()
    env: dict[str, tuple[str, object]] = {}
    poisoned: set[str] = set()
    records: list[dict] = []
    for stmt in program.statements:
        text = format_statement(stmt)
        if isinstance(stmt, Binding):
            try:
                obj = build(stmt.call, env, cfg)
                env[stmt.name] = (stmt.kind, obj)
            except (WcalcError, ValueError, ArithmeticError) as exc:
                poisoned.add(stmt.name)
                env[stmt.name] = (stmt.kind, None)
                records.append({"query": text, "kind": "binding",
                                "name": stmt.name,
                                "error": {"type": type(exc).__name__,
                                          "message": str(exc)}})
            continue
        record = {"query": text, "kind": stmt.kind, "op": stmt.call.name}
        bad = next((v.name for _, v in stmt.call.args
                    if isinstance(v, Ref) and v.name in poisoned), None)
        if bad is not None:
            record["error"] = {"type": "PoisonedReference",
                               "message": f"binding {bad!r} failed earlier"}
            records.append(record)
            continue
        if horizon_override is not None:
            h = horizon_override
        elif stmt.horizon is not None:
            h = stmt.horizon
        else:
            h = cfg.horizon
        try:
            record.update(run_query(stmt, env, cfg, h))
        except (WcalcError, ValueError, ArithmeticError) as exc:
            record["error"] = {"type": type(exc).__name__,
                               "message": str(exc)}
        records.append(record)
    return records
