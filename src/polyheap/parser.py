"""Parser and printer for the textual program format.

    program  ::= (funcdef | preddef | specdef)*
    funcdef  ::= "func" ID "(" params ")" "{" cmd (";" cmd)* ";" "return" expr "}"
    preddef  ::= "pred" ID "(" predparams ")" "{" assertion "}"
    specdef  ::= "spec" ("SL"|"ISL"|"ESL") ID "(" params ")" "{"
                   "requires" ":" assertion ";"
                   ["ensures_ok" ":" assertion ";"] ["ensures_err" ":" assertion ";"] "}"

Expressions, loosest first: `or`; `and`; `<=`, `<`, `=` and the postfix
`e in Val` / `e in Nat` (a type keyword); `+`, `-`; `/`; prefix `not`.
Binary operators associate to the left.

Commands: skip, x := e, if (e) { .. } else { .. }, x := f(e, ..),
x, y := act(e, ..), act(e, ..), fold p(le, ..), unfold p(le, ..).
Logical variables are written #name; rational literals with a q suffix
(1q, 1/2q); `//` starts a line comment.

Atoms `name(ins; outs)` are resolved after parsing: names declared by a
`pred` in the same file become predicate assertions, anything else is a
memory-model resource assertion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .assertions import (
    Assertion,
    Bool,
    Emp,
    Exists,
    FALSE_A,
    Implies,
    Or,
    Pred,
    PredDef,
    PredTable,
    Quadruple,
    Res,
    SpecContext,
    Star,
    TrueA,
    format_assertion,
    map_atoms,
)
from .syntax import (
    Action,
    Assign,
    Bin,
    Cmd,
    Expr,
    Fold,
    FunCall,
    FunctionDef,
    IfElse,
    ImplContext,
    InType,
    InVal,
    Lit,
    LstE,
    LVar,
    Not,
    PVar,
    RESERVED_VARS,
    Seq,
    Skip,
    TYPE_OF_KEYWORD,
    Unfold,
    format_cmd,
    format_expr,
    prog_vars,
    pv_expr,
)
from .values import NIL, TRUE, FALSE, Rat


class ParseError(Exception):
    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = sorted(set(expected))
        detail = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{line}:{col}: {message}{detail}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<rat>\d+/\d+q|\d+q)
  | (?P<nat>\d+)
  | (?P<lvar>\#[A-Za-z_][A-Za-z0-9_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<sym>:=|<=|=>|\\/|[-+*/<=(){}\[\],;:.])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "func", "pred", "spec", "skip", "if", "else", "return", "fold", "unfold",
    "exists", "emp", "True", "requires", "ensures_ok", "ensures_err",
    "and", "or", "not", "in", "nil", "true", "false",
    "SL", "ISL", "ESL", "Val", "Nil", "Bool", "Nat", "Rat", "Str", "List",
}

# binary operators by precedence level, loosest first
_BINARY = (("or",), ("and",), ("<=", "<", "="), ("+", "-"), ("/",))
_CMP_LEVEL = 2  # where the postfix `e in T` binds


@dataclass
class Token:
    kind: str  # 'rat' | 'nat' | 'lvar' | 'id' | 'kw' | 'str' | 'sym' | 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            if kind == "id" and tok in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass
class ParsedProgram:
    functions: ImplContext = field(default_factory=ImplContext)
    preds: PredTable = field(default_factory=PredTable)
    specs: SpecContext = field(default_factory=SpecContext)
    order: list = field(default_factory=list)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.fail_pos = 0
        self.fail_expected = set()

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("sym", "kw")

    def accept(self, text: str):
        if self.at(text):
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.next()
        self.error(f"expected {text!r}", {text})

    def error(self, message, expected=()):
        t = self.peek()
        if self.pos >= self.fail_pos:
            self.fail_expected |= set(expected)
        raise ParseError(
            f"{message}, found {t.text!r}" if t.text else f"{message} at end of input",
            t.line,
            t.col,
            expected or self.fail_expected,
        )

    def note_failure(self, expected):
        if self.pos > self.fail_pos:
            self.fail_pos = self.pos
            self.fail_expected = set(expected)
        elif self.pos == self.fail_pos:
            self.fail_expected |= set(expected)

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "id":
            self.error("expected identifier", {"identifier"})
        return self.next().text

    # -- expressions --------------------------------------------------------

    def expr(self) -> Expr:
        return self._binary(0)

    def _binary(self, level: int) -> Expr:
        """Operands joined left to right by the operators of `_BINARY[level]`,
        each parsed at the next tighter level. An operator whose right
        operand does not parse is left unread."""
        if level == len(_BINARY):
            return self._unary()
        ops = _BINARY[level]
        e = self._binary(level + 1)
        while True:
            # only sym and kw tokens can have an operator's text
            t = self.tokens[self.pos]
            if t.text == "in" and level == _CMP_LEVEL:
                self.next()
                t = self.peek()
                if t.text == "Val":
                    self.next()
                    e = InVal(e)
                elif t.text in TYPE_OF_KEYWORD:
                    self.next()
                    e = InType(e, TYPE_OF_KEYWORD[t.text])
                else:
                    self.error("expected a type after 'in'", {"Val", *TYPE_OF_KEYWORD})
                continue
            if t.text not in ops:
                return e
            save = self.pos
            self.next()
            try:
                rhs = self._binary(level + 1)
            except ParseError:
                self.pos = save
                return e
            e = Bin(t.text, e, rhs)

    def _unary(self) -> Expr:
        if self.at("not"):
            self.next()
            return Not(self._unary())
        return self._atom()

    def _atom(self) -> Expr:
        t = self.peek()
        if t.kind == "nat":
            self.next()
            return Lit(int(t.text))
        if t.kind == "rat":
            body = t.text[:-1]
            self.next()
            if "/" in body:
                num, den = body.split("/")
                return Lit(Rat(int(num), int(den)))
            return Lit(Rat(int(body)))
        if t.kind == "str":
            self.next()
            raw = t.text[1:-1]
            return Lit(raw.replace('\\"', '"').replace("\\\\", "\\"))
        if t.kind == "lvar":
            self.next()
            return LVar(t.text[1:])
        if t.kind == "kw" and t.text in ("nil", "true", "false"):
            self.next()
            return Lit({"nil": NIL, "true": TRUE, "false": FALSE}[t.text])
        if t.kind == "id":
            if self.peek(1).text == "(":
                # expressions have no application syntax; `name(` can only
                # start a resource/predicate atom or a command-level call
                self.note_failure({"expression"})
                self.error("expected an expression", {"expression"})
            self.next()
            return PVar(t.text)
        if self.accept("["):
            return LstE(tuple(self._list(self.expr, "]")))
        if self.at("("):
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        self.note_failure({"expression"})
        self.error("expected an expression", {"expression"})

    # -- assertions ---------------------------------------------------------

    def assertion(self) -> Assertion:
        left = self._assert_or()
        if self.at("=>"):
            self.next()
            right = self.assertion()
            return Implies(left, right)
        return left

    def _assert_or(self) -> Assertion:
        e = self._assert_star()
        while self.at("\\/"):
            self.next()
            e = Or(e, self._assert_star())
        return e

    def _assert_star(self) -> Assertion:
        e = self._assert_atom()
        while self.at("*"):
            self.next()
            e = Star(e, self._assert_atom())
        return e

    def _assert_atom(self) -> Assertion:
        t = self.peek()
        if self.at("emp"):
            self.next()
            return Emp()
        if self.at("True"):
            self.next()
            return TrueA()
        if self.at("exists"):
            self.next()
            names = [self._binder()]
            while self.accept(","):
                names.append(self._binder())
            self.expect(".")
            # the binder extends as far right as possible
            body = self.assertion()
            for n in reversed(names):
                body = Exists(n, body)
            return body
        # name(ins; outs) atom — only when an id is directly applied
        if t.kind == "id" and self.peek(1).text == "(":
            save = self.pos
            name = self.next().text
            self.next()  # (
            try:
                ins, outs = self._atom_params()
                return Res(name, tuple(ins), tuple(outs))
            except ParseError:
                self.pos = save
        # boolean expression, or a parenthesised assertion
        save = self.pos
        try:
            e = self.expr()
            return Bool(e)
        except ParseError:
            self.pos = save
        if self.at("("):
            self.next()
            a = self.assertion()
            self.expect(")")
            return a
        self.error("expected an assertion", {"assertion"})

    def _binder(self) -> str:
        if self.peek().kind != "lvar":
            self.error("expected a logical variable", {"#name"})
        return self.next().text[1:]

    def _atom_params(self):
        ins, outs = [], []
        bucket = ins
        expect_item = False
        while True:
            if self.at(")") and not expect_item:
                self.next()
                return ins, outs
            if self.accept(";"):
                if bucket is outs:
                    self.error("duplicate ';' in parameter list", {")"})
                bucket = outs
                expect_item = False
                continue
            bucket.append(self.expr())
            expect_item = False
            if self.accept(","):
                expect_item = True
                continue
            if not (self.at(";") or self.at(")")):
                self.error("expected ',', ';' or ')'", {",", ";", ")"})

    # -- commands -----------------------------------------------------------

    def command_seq(self, stop_kw: str) -> Cmd:
        cmds = [self.command()]
        while self.at(";"):
            if self.peek(1).text == stop_kw:
                break
            self.next()
            cmds.append(self.command())
        out = cmds[-1]
        for c in reversed(cmds[:-1]):
            out = Seq(c, out)
        return out

    def command(self) -> Cmd:
        if self.at("skip"):
            self.next()
            return Skip()
        if self.at("if"):
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            self.expect("{")
            then = self.command_seq("}")
            self.expect("}")
            self.expect("else")
            self.expect("{")
            els = self.command_seq("}")
            self.expect("}")
            return IfElse(cond, then, els)
        if self.at("fold") or self.at("unfold"):
            ctor = Fold if self.next().text == "fold" else Unfold
            name = self.ident()
            self.expect("(")
            return ctor(name, tuple(self._list(self.expr, ")")))
        t = self.peek()
        if t.kind != "id":
            self.error("expected a command", {"skip", "if", "fold", "unfold", "identifier"})
        # targets := call | target := expr | bare call
        if self.peek(1).text == "(":
            name = self.next().text
            self.next()
            return Action((), name, tuple(self._list(self.expr, ")")))
        targets = [self.next().text]
        while self.accept(","):
            targets.append(self.ident())
        self.expect(":=")
        if len(targets) == 1 and not (self.peek().kind == "id" and self.peek(1).text == "("):
            return Assign(targets[0], self.expr())
        # funcall vs action resolved once declared functions are known
        name = self.ident()
        self.expect("(")
        return Action(tuple(targets), name, tuple(self._list(self.expr, ")")))

    def _list(self, item, close: str) -> list:
        """`item ("," item)*`, possibly empty, then the `close` token."""
        items = []
        if not self.at(close):
            items.append(item())
            while self.accept(","):
                items.append(item())
        self.expect(close)
        return items

    # -- top level ----------------------------------------------------------

    def program(self) -> ParsedProgram:
        prog = ParsedProgram()
        while self.peek().kind != "eof":
            t = self.peek()
            if self.at("func"):
                f = self.funcdef()
                if f.fid in prog.functions:
                    raise ParseError(f"duplicate function {f.fid!r}", t.line, t.col)
                prog.functions[f.fid] = f
                prog.order.append(("func", f.fid))
            elif self.at("pred"):
                p = self.preddef()
                if p.name in prog.preds:
                    raise ParseError(f"duplicate predicate {p.name!r}", t.line, t.col)
                prog.preds[p.name] = p
                prog.order.append(("pred", p.name))
            elif self.at("spec"):
                idx = sum(1 for kind, _ in prog.order if kind == "spec")
                q = self.specdef()
                prog.specs.add(q)
                prog.order.append(("spec", (q.fid, idx)))
            else:
                self.error("expected 'func', 'pred' or 'spec'", {"func", "pred", "spec"})
        _resolve(prog)
        return prog

    def funcdef(self) -> FunctionDef:
        start = self.peek()
        self.expect("func")
        fid = self.ident()
        self.expect("(")
        params = self._list(self.ident, ")")
        self.expect("{")
        body = self.command_seq("return")
        self.expect(";")
        self.expect("return")
        ret = self.expr()
        self.expect("}")
        try:
            f = FunctionDef(fid, tuple(params), body, ret)
        except ValueError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc
        used = set(f.params) | prog_vars(f.body) | pv_expr(f.ret)
        reserved = used & set(RESERVED_VARS)
        if reserved:
            raise ParseError(
                f"variables {sorted(reserved)} are reserved for error and return reporting",
                start.line, start.col,
            )
        return f

    def preddef(self) -> PredDef:
        start = self.peek()
        self.expect("pred")
        name = self.ident()
        self.expect("(")
        ins, outs = [], []
        while not self.at(")"):
            if self.accept(";") or self.accept(","):
                continue
            plus = bool(self.accept("+"))
            tok = self.peek()
            if tok.kind != "lvar":
                self.error("expected a logical variable parameter", {"#name", "+#name"})
            self.next()
            (ins if plus else outs).append(tok.text[1:])
        self.expect(")")
        self.expect("{")
        body = self.assertion()
        self.expect("}")
        try:
            return PredDef(name, tuple(ins), tuple(outs), body)
        except ValueError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc

    def specdef(self) -> Quadruple:
        start = self.peek()
        self.expect("spec")
        t = self.peek()
        if t.text not in ("SL", "ISL", "ESL"):
            self.error("expected a flavor", {"SL", "ISL", "ESL"})
        flavor = self.next().text
        fid = self.ident()
        self.expect("(")
        params = self._list(self.ident, ")")
        self.expect("{")
        self.expect("requires")
        self.expect(":")
        pre = self.assertion()
        self.expect(";")
        post_ok, post_err = FALSE_A, FALSE_A
        if self.at("ensures_ok"):
            self.next()
            self.expect(":")
            post_ok = self.assertion()
            self.accept(";")
        if self.at("ensures_err"):
            self.next()
            self.expect(":")
            post_err = self.assertion()
            self.accept(";")
        self.expect("}")
        q = Quadruple(flavor, fid, tuple(params), pre, post_ok, post_err)
        try:
            q.check_external_shape()
        except ValueError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc
        return q


def _resolve(prog: ParsedProgram):
    """Post-parse resolution: single-target calls to declared functions
    become function calls; atoms named after declared predicates become
    predicate assertions."""

    def fix_cmd(c: Cmd) -> Cmd:
        if isinstance(c, Action) and len(c.targets) == 1 and c.name in prog.functions:
            return FunCall(c.targets[0], c.name, c.args)
        if isinstance(c, Seq):
            return Seq(fix_cmd(c.first), fix_cmd(c.second))
        if isinstance(c, IfElse):
            return IfElse(c.cond, fix_cmd(c.then), fix_cmd(c.els))
        return c

    def fix_atom(a: Assertion, _bound) -> Assertion:
        if isinstance(a, Res) and a.name in prog.preds:
            return Pred(a.name, a.ins, a.outs)
        return a

    def fix_assertion(a: Assertion) -> Assertion:
        return map_atoms(a, fix_atom)

    for fid, f in list(prog.functions.items()):
        prog.functions[fid] = FunctionDef(f.fid, f.params, fix_cmd(f.body), f.ret)
    for name, p in list(prog.preds.items()):
        prog.preds[name] = PredDef(p.name, p.ins, p.outs, fix_assertion(p.body))
    for fid, qs in list(prog.specs.items()):
        prog.specs[fid] = [
            Quadruple(q.flavor, q.fid, q.params, fix_assertion(q.pre),
                      fix_assertion(q.post_ok), fix_assertion(q.post_err))
            for q in qs
        ]


def parse_program(text: str) -> ParsedProgram:
    return _Parser(text).program()


def format_program(prog: ParsedProgram) -> str:
    chunks = []
    # reconstruct spec order from the order list
    ordered_specs = []
    counts = {}
    for kind, key in prog.order:
        if kind == "spec":
            fid, _ = key
            i = counts.get(fid, 0)
            counts[fid] = i + 1
            ordered_specs.append(prog.specs[fid][i])
    it = iter(ordered_specs)
    for kind, key in prog.order:
        if kind == "func":
            f = prog.functions[key]
            body = format_cmd(f.body, "  ")
            chunks.append(
                f"func {f.fid}({', '.join(f.params)}) {{\n{body};\n  return {format_expr(f.ret)}\n}}"
            )
        elif kind == "pred":
            p = prog.preds[key]
            params = ", ".join(["+#" + x for x in p.ins] + ["#" + x for x in p.outs])
            chunks.append(f"pred {p.name}({params}) {{ {format_assertion(p.body)} }}")
        else:
            q = next(it)
            lines = [f"spec {q.flavor} {q.fid}({', '.join(q.params)}) {{"]
            lines.append(f"  requires: {format_assertion(q.pre)};")
            if q.post_ok != FALSE_A:
                lines.append(f"  ensures_ok: {format_assertion(q.post_ok)};")
            if q.post_err != FALSE_A:
                lines.append(f"  ensures_err: {format_assertion(q.post_err)};")
            lines.append("}")
            chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
