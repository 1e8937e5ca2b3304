"""Budgeted program registry backing the opponent machinery.

A *program* here is a partial function on naturals: it may answer, or it
may fail to answer within the evaluation budget ("fuel").  Two carriers
are supported -- a python callable and a script in a deliberately tiny
expression language -- both wrapped behind the same call interface so the
rest of the package never cares which one it got.

The one law every carrier obeys: convergence is monotone in fuel.  If a
call answers at budget f, it answers identically at every budget above f.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

from .strings import IDENTITY, DialecticError, Shape, natural_from_str, quoted


class ProgramError(DialecticError, ValueError):
    """Malformed program text, or a call that cannot be well-formed."""


class _Diverge(Exception):
    """Internal: evaluation will not produce a value."""


# ---------------------------------------------------------------------------
# the expression language
# ---------------------------------------------------------------------------
#
# Scripts are s-expressions over integer literals and the variables
#   n -- the first argument (single-argument programs),
#   t -- the first argument again (conventional name in two-argument use),
#   x -- the second argument.
#
# Every AST node visited costs one unit of fuel, so deeper evaluations
# need bigger budgets but never change their answers.  `and`, `or` and
# `if` are short-circuiting (the skipped branch costs nothing), and the
# partial operations -- division or modulus by zero, shifts by amounts
# outside [0, 64] -- do not error but diverge, as does the literal form
# (diverge).  A script nests at most MAX_SEXPR_DEPTH forms inside one
# another, so neither the parser nor the evaluator can run out of stack.
#
# Each script is also compiled, once, into one Python function of (n, x),
# and FueledFunction.call uses it whenever the fuel is at least the
# script's node count.  That is exact: with no loops in the language, an
# evaluation visits every node at most once, so at that fuel eval_sexpr
# cannot run out, and the function's answer or divergence is its answer.
# Lower fuel, a script that Python's compiler refuses, and a one-argument
# call of a script that names x (an error only if evaluation reaches x)
# go to eval_sexpr.

MAX_SEXPR_DEPTH = 200

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "band": lambda a, b: a & b,
    "bor": lambda a, b: a | b,
    "bxor": lambda a, b: a ^ b,
    "eq": lambda a, b: 1 if a == b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
}

_KNOWN_OPS = (set(_ARITH) | {"div", "mod", "shl", "shr",
                             "and", "or", "not", "if", "diverge"})


def tokenize_sexpr(text: str) -> list[str]:
    return re.findall(r"[()]|[^()\s]+", text)


def parse_sexpr(text: str):
    """Parse a script into its AST (nested tuples over ints and names)."""
    tokens = tokenize_sexpr(text)
    if not tokens:
        raise ProgramError("empty program")
    pos = 0

    def parse_one(depth):
        nonlocal pos
        if pos >= len(tokens):
            raise ProgramError("unexpected end of program")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if depth == MAX_SEXPR_DEPTH:
                raise ProgramError("forms nested deeper than %d"
                                   % MAX_SEXPR_DEPTH)
            if pos >= len(tokens):
                raise ProgramError("unterminated form")
            head = tokens[pos]
            pos += 1
            if head in "()":
                raise ProgramError("operator name expected after '('")
            if head not in _KNOWN_OPS:
                raise ProgramError("unknown operator %s" % quoted(head))
            args = []
            while pos < len(tokens) and tokens[pos] != ")":
                args.append(parse_one(depth + 1))
            if pos >= len(tokens):
                raise ProgramError("unterminated form")
            pos += 1  # consume ')'
            return _check_arity(head, tuple(args))
        if tok == ")":
            raise ProgramError("unbalanced ')'")
        if tok in ("n", "t", "x"):
            return tok
        negative = tok[:1] == "-"
        try:
            value = natural_from_str(tok[1:] if negative else tok,
                                     "unknown token %s" % quoted(tok))
        except ValueError as exc:
            raise ProgramError(str(exc)) from None
        return -value if negative else value

    node = parse_one(0)
    if pos != len(tokens):
        raise ProgramError("trailing tokens after program")
    return node


def _check_arity(head, args):
    want = {"not": 1, "diverge": 0, "if": 3}.get(head, 2)
    if len(args) != want:
        raise ProgramError("%s takes %d operand(s), got %d"
                           % (head, want, len(args)))
    return (head,) + args


def eval_sexpr(node, env: dict, budget: list) -> int:
    budget[0] -= 1
    if budget[0] < 0:
        raise _Diverge
    if isinstance(node, int):
        return node
    if isinstance(node, str):
        return env[node]
    op = node[0]
    if op == "diverge":
        raise _Diverge
    if op == "if":
        if eval_sexpr(node[1], env, budget) != 0:
            return eval_sexpr(node[2], env, budget)
        return eval_sexpr(node[3], env, budget)
    if op == "and":
        if eval_sexpr(node[1], env, budget) == 0:
            return 0
        return 1 if eval_sexpr(node[2], env, budget) != 0 else 0
    if op == "or":
        a = eval_sexpr(node[1], env, budget)
        if a != 0:
            return 1
        return 1 if eval_sexpr(node[2], env, budget) != 0 else 0
    if op == "not":
        return 1 if eval_sexpr(node[1], env, budget) == 0 else 0
    a = eval_sexpr(node[1], env, budget)
    b = eval_sexpr(node[2], env, budget)
    if op in ("div", "mod"):
        if b == 0:
            raise _Diverge
        return a // b if op == "div" else a % b
    if op in ("shl", "shr"):
        if b < 0 or b > 64:
            raise _Diverge
        return a << b if op == "shl" else a >> b
    return _ARITH[op](a, b)


# The compiler turns the AST into one Python expression: `if`, `and`, `or`
# and `not` become conditional expressions, and the helpers below make the
# partial operations and (diverge) diverge as eval_sexpr does.  Only this
# fixed operator table and %d-formatted integer literals enter the source.

def _divisor(b):
    if b == 0:
        raise _Diverge
    return b


def _shift(b):
    if b < 0 or b > 64:
        raise _Diverge
    return b


def _diverge():
    raise _Diverge


_PY_FORMS = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "band": "({0} & {1})",
    "bor": "({0} | {1})",
    "bxor": "({0} ^ {1})",
    "eq": "(1 if {0} == {1} else 0)",
    "lt": "(1 if {0} < {1} else 0)",
    "le": "(1 if {0} <= {1} else 0)",
    "ge": "(1 if {0} >= {1} else 0)",
    "gt": "(1 if {0} > {1} else 0)",
    "div": "({0} // _divisor({1}))",
    "mod": "({0} % _divisor({1}))",
    "shl": "({0} << _shift({1}))",
    "shr": "({0} >> _shift({1}))",
    "and": "(1 if {0} and {1} else 0)",
    "or": "(1 if {0} or {1} else 0)",
    "not": "(0 if {0} else 1)",
    "if": "({1} if {0} else {2})",
    "diverge": "_diverge()",
}

_PY_HELPERS = {"_divisor": _divisor, "_shift": _shift, "_diverge": _diverge}


def _py_source(node, seen: list) -> str:
    """Python expression for node; every node it covers goes onto seen."""
    seen.append(node)
    if type(node) is int:
        return "%d" % node
    if node in ("n", "t", "x"):
        return "x" if node == "x" else "n"
    if type(node) is not tuple or not node or node[0] not in _PY_FORMS:
        raise ValueError("not a script AST")
    _check_arity(node[0], node[1:])
    return _PY_FORMS[node[0]].format(*(_py_source(a, seen)
                                       for a in node[1:]))


def compile_sexpr(node) -> Optional[tuple[Callable[..., int], int, int]]:
    """Compile a script AST into (function, node count, arity).

    The function takes n, or n and x, and raises _Diverge where eval_sexpr
    diverges; the arity is 2 if the script names x, else 1.  None if the
    AST is malformed or Python's compiler refuses it.
    """
    seen: list = []
    try:
        body = _py_source(node, seen)
        fn = eval("lambda n, x=0, *_: " + body, dict(_PY_HELPERS))
    except (ValueError, SyntaxError, RecursionError, MemoryError):
        return None
    return fn, len(seen), 2 if "x" in seen else 1


# A *masked* script of (t, x) reads x only as (band x K), answers x or
# (bor x K), and compares t only with literals, every K and literal a
# natural.  It never diverges and its answers include x.  For an x without
# bit 0, its bit 0 depends only on x & M, M the OR of the band masks, and
# on where t lies among its literals: it can change only at t = K or K+1.

def masked_form(node) -> Optional[tuple[int, tuple[int, ...]]]:
    """(M, sorted t boundaries) for a masked script, else None."""
    mask, bounds = 0, set()

    def with_x(a, op):   # K of (op x K) or (op K x), K a natural; else None
        if type(a) is tuple and a[0] == op and "x" in a[1:]:
            k = a[1] if a[2] == "x" else a[2]
            return k if type(k) is int and k >= 0 else None
        return None

    def test(c):
        nonlocal mask
        if type(c) is not tuple or c[0] not in ("and", "or", "not", "eq",
                                                 "lt", "le", "ge", "gt"):
            return False
        if c[0] in ("and", "or", "not"):
            return all(map(test, c[1:]))
        a, b = c[1:]
        if a in ("t", "n") or b in ("t", "n"):
            k = b if a in ("t", "n") else a
            if type(k) is not int or k < 0:
                return False
            bounds.update((k, k + 1))
            return True
        for v in (a, b):
            k = with_x(v, "band")
            if k is not None:
                mask |= k
            elif type(v) is not int or v < 0:
                return False
        return True

    def result(r):
        if type(r) is tuple and r[0] == "if":
            return test(r[1]) and result(r[2]) and result(r[3])
        return r == "x" or with_x(r, "bor") is not None

    return (mask, tuple(sorted(bounds))) if result(node) else None


# A *block* script of n permutes every block [kB, (k+1)B) alike: its body
# is n (or t), the shape (0, 1), or (+ (* (div n B) B) E) with either
# operand order, B a positive literal, in which E reads no x and reads n
# only as (mod n B).  Then E sees the same j = n mod B in every block, so
# the script's value is kB + E(j), and it is a permutation of each block
# exactly when E is one of [0, B): E is evaluated once on [0, B) to know.

MAX_BLOCK = 2 ** 16   # blocks longer than this are not evaluated


def block_shape(node, fn: Optional[Callable[..., int]] = None) -> Optional[Shape]:
    """The shape (0, B) of a block script, else None; fn is the script
    compiled, if it is at hand."""
    if node in ("n", "t"):
        return IDENTITY

    def split(a, op):   # the operands of (op a b), in either order
        return (a[1:], a[2:0:-1]) if type(a) is tuple and a[0] == op else ()

    for base, E in split(node, "+"):
        for q, B in split(base, "*"):
            if (type(B) is int and 0 < B <= MAX_BLOCK
                    and q in (("div", "n", B), ("div", "t", B))
                    and not _reads_n(E, B)):
                try:
                    return Shape(fn or compile_sexpr(node)[0], 0, B)
                except (_Diverge, ValueError, TypeError):
                    return None
    return None


def _reads_n(node, B: int) -> bool:
    """Whether node reads x, or n or t other than as (mod n B)."""
    if node in ("n", "t", "x"):
        return True
    if type(node) is not tuple or node in (("mod", "n", B), ("mod", "t", B)):
        return False
    return any(_reads_n(a, B) for a in node[1:])


# ---------------------------------------------------------------------------
# the common wrapper
# ---------------------------------------------------------------------------

@dataclass
class FueledFunction:
    """A partial function on naturals with budgeted evaluation.

    kind is "closure" (payload: python callable returning int or None)
    or "sexpr" (payload: parsed AST).  Closure calls cost one unit of
    fuel; script calls cost one unit per visited node.

    A compiled script keeps compile_sexpr's function, node count (its
    *saturation*: from that fuel on, no answer depends on the fuel) and
    arity, its masked_form and its block_shape, if it has them.
    Every answer, compiled or not, is checked to be a natural.
    """

    kind: str
    payload: object
    name: str = ""
    fast = None
    saturation = math.inf
    arity = 0
    masked = None
    shape = None

    def __post_init__(self) -> None:
        if self.kind not in ("closure", "sexpr"):
            raise ProgramError("unknown program kind %r" % self.kind)
        if self.kind == "sexpr":
            compiled = compile_sexpr(self.payload)
            if compiled is not None:
                self.fast, self.saturation, self.arity = compiled
                self.masked = masked_form(self.payload)
                self.shape = block_shape(self.payload, self.fast)

    def call(self, args: tuple[int, ...], fuel: int) -> Optional[int]:
        """Evaluate on args; None means no answer within this budget."""
        if fuel >= self.saturation and len(args) >= self.arity:
            try:
                value = self.fast(*args)
            except _Diverge:
                return None
        elif fuel < 1:
            return None
        elif self.kind == "closure":
            value = self.payload(*args)
        else:
            env = {"n": args[0], "t": args[0]}
            if len(args) > 1:
                env["x"] = args[1]
            budget = [fuel]
            try:
                value = eval_sexpr(self.payload, env, budget)
            except _Diverge:
                return None
            except KeyError as exc:
                raise ProgramError("program %r uses unbound variable %s"
                                   % (self.name, exc)) from None
        if value is None:
            return None
        if not isinstance(value, int) or value < 0:
            raise ProgramError("program %r produced %r; expected a natural"
                               % (self.name, value))
        return value


def script(text: str, name: str = "") -> FueledFunction:
    return FueledFunction("sexpr", parse_sexpr(text), name=name)


def closure(fn: Callable[..., Optional[int]], name: str = "") -> FueledFunction:
    return FueledFunction("closure", fn, name=name)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

class ProgramUniverse:
    """A finite, append-only numbering of programs.

    Opponents name their three components by index into one of these, so
    a single integer (see decode_index in the opponents module) can pin
    down a whole opponent relative to the registry.
    """

    def __init__(self) -> None:
        self._programs: list[FueledFunction] = []
        self._by_name: dict[str, int] = {}

    def register(self, fn: FueledFunction) -> int:
        index = len(self._programs)
        self._programs.append(fn)
        if fn.name:
            if fn.name in self._by_name:
                raise ProgramError("duplicate program name %s" % quoted(fn.name))
            self._by_name[fn.name] = index
        return index

    def __len__(self) -> int:
        return len(self._programs)

    def __getitem__(self, index: int) -> FueledFunction:
        return self._programs[index]

    def index_of(self, name: str) -> int:
        if name not in self._by_name:
            raise KeyError("no program named %s" % quoted(name))
        return self._by_name[name]
