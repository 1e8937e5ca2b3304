"""Textual descriptions of dialectical systems.

A system file is line oriented and read like every other input file (see
the input layer in ``strings``): UTF-8 text, ``#`` starts a comment
anywhere on a line, blank lines are skipped, and axiom tokens and counts
are written in ASCII digits.  The remaining lines are directives:

    variant q              optional declared variant tag (d, p or q)
    axioms 4               optional intended base-axiom count
    at 0 : a0 a1 |- BOT    a staged operator rule
    replace a3 -> a5       an explicit replacement entry

A line that cannot be understood raises ``ParseError`` naming its number.
The renderer produces a canonical form (directives first, rules in file
order, replacement entries sorted by source axiom) and is a fixpoint of
parse-then-render.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .consequence import Rule, RuleTable, parse_rule_line
from .engine import QSystem, ReplacementMap, variant_flags
from .strings import (DialecticError, ParseError, axiom_from_str, natural_from_str,
                      numbered_lines, quoted, read_input)

VARIANTS = ("d", "p", "q")


class VariantError(DialecticError, ValueError):
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

def parse_system(text: str) -> SystemSpec:
    """Parse a system file; raise ParseError with the offending line."""
    rules: list[Rule] = []
    repl: dict[int, int] = {}
    variant: Optional[str] = None
    axioms: Optional[int] = None
    for line_no, line in numbered_lines(text):
        word = line.split(None, 1)[0]
        body = line[len(word):].strip()
        try:
            if word == "variant":
                if body not in VARIANTS:
                    raise ValueError("variant must be one of d, p, q")
                if variant is not None:
                    raise ValueError("duplicate variant directive")
                variant = body
            elif word == "axioms":
                count = natural_from_str(body, "axioms needs a nonnegative count")
                if axioms is not None:
                    raise ValueError("duplicate axioms directive")
                axioms = count
            elif word == "at":
                rules.append(parse_rule_line(line))
            elif word == "replace":
                if "->" not in body:
                    raise ValueError("replace line needs 'a<i> -> a<j>'")
                i, j = (axiom_from_str(tok, "bad axiom token %s" % quoted(tok))
                        for tok in map(str.strip, body.split("->", 1)))
                if i in repl:
                    raise ValueError("duplicate replacement for a%d" % i)
                repl[i] = j
            else:
                raise ValueError("unknown directive %s" % quoted(word))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
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
    return parse_system(read_input(path))


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
