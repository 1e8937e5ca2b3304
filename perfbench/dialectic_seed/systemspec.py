"""Textual descriptions of dialectical systems.

A system file is line oriented.  Blank lines and ``#`` comments are skipped;
the remaining lines are directives:

    variant q              optional declared variant tag (d, p or q)
    axioms 4               optional intended base-axiom count
    at 0 : a0 a1 |- BOT    a staged operator rule
    replace a3 -> a5       an explicit replacement entry

The renderer produces a canonical form (directives first, rules in file
order, replacement entries sorted by source axiom) and is a fixpoint of
parse-then-render.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .consequence import Rule, RuleTable, parse_rule_line
from .engine import QSystem, ReplacementMap, variant_flags

VARIANTS = ("d", "p", "q")


class SpecParseError(ValueError):
    """A system file line could not be understood."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class VariantError(ValueError):
    """A declared variant tag conflicts with the rules actually present."""


# ---------------------------------------------------------------------------
# the spec container
# ---------------------------------------------------------------------------

@dataclass
class SystemSpec:
    """Parsed form of a system file."""

    table: RuleTable = field(default_factory=RuleTable)
    replacements: tuple[tuple[int, int], ...] = ()
    variant: Optional[str] = None
    axioms: Optional[int] = None

    def build(self) -> QSystem:
        """Construct the executable system (validates the replacement map)."""
        return QSystem(self.table, ReplacementMap(self.replacements))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_replace(body: str, line_no: int) -> tuple[int, int]:
    if "->" not in body:
        raise SpecParseError(line_no, "replace line needs 'a<i> -> a<j>'")
    left, right = body.split("->", 1)

    def axiom(tok: str) -> int:
        tok = tok.strip()
        if not (len(tok) > 1 and tok[0] == "a" and tok[1:].isdigit()):
            raise SpecParseError(line_no, "bad axiom token %r" % tok)
        return int(tok[1:])

    return axiom(left), axiom(right)


def parse_system(text: str) -> SystemSpec:
    """Parse a system file; raise SpecParseError with the offending line."""
    rules: list[Rule] = []
    repl: dict[int, int] = {}
    variant: Optional[str] = None
    axioms: Optional[int] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = line.split(None, 1)[0]
        if word == "variant":
            tag = line[len("variant"):].strip()
            if tag not in VARIANTS:
                raise SpecParseError(line_no, "variant must be one of d, p, q")
            if variant is not None:
                raise SpecParseError(line_no, "duplicate variant directive")
            variant = tag
        elif word == "axioms":
            body = line[len("axioms"):].strip()
            if not body.isdigit():
                raise SpecParseError(line_no, "axioms needs a nonnegative count")
            if axioms is not None:
                raise SpecParseError(line_no, "duplicate axioms directive")
            axioms = int(body)
        elif word == "at":
            try:
                rules.append(parse_rule_line(line))
            except ValueError as exc:
                raise SpecParseError(line_no, str(exc)) from None
        elif word == "replace":
            i, j = _parse_replace(line[len("replace"):], line_no)
            if i in repl:
                raise SpecParseError(line_no, "duplicate replacement for a%d" % i)
            repl[i] = j
        else:
            raise SpecParseError(line_no, "unknown directive %r" % word)
    return SystemSpec(RuleTable(rules), tuple(sorted(repl.items())), variant, axioms)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_system(spec: SystemSpec) -> str:
    lines = []
    if spec.variant is not None:
        lines.append("variant %s" % spec.variant)
    if spec.axioms is not None:
        lines.append("axioms %d" % spec.axioms)
    for r in spec.table:
        lines.append(r.render())
    for i, j in sorted(spec.replacements):
        lines.append("replace a%d -> a%d" % (i, j))
    return "\n".join(lines) + ("\n" if lines else "")


def load_system(path) -> SystemSpec:
    with open(path) as fp:
        return parse_system(fp.read())


def save_system(spec: SystemSpec, path) -> None:
    with open(path, "w") as fp:
        fp.write(render_system(spec))


# ---------------------------------------------------------------------------
# variant discipline
# ---------------------------------------------------------------------------

def check_variant(spec: SystemSpec) -> None:
    """Reject a declared tag the rule set cannot honour.

    'd' forbids counterexample rules, 'p' forbids inconsistency rules and
    'q' allows both; an undeclared spec is never rejected.
    """
    if spec.variant is None:
        return
    system = QSystem(spec.table, ReplacementMap())
    d_ok, p_ok = variant_flags(system)
    if spec.variant == "d" and not d_ok:
        raise VariantError("spec tagged 'd' but the table produces counterexamples")
    if spec.variant == "p" and not p_ok:
        raise VariantError("spec tagged 'p' but the table derives inconsistency")
