"""Exception hierarchy and validation-report primitives."""

from __future__ import annotations

from dataclasses import dataclass


class GrassError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GrassError):
    """A declaration (algebra, mode, backend, ...) is malformed."""


class InputError(GrassError):
    """An argument lies outside its documented domain."""


class ModeOrderError(GrassError):
    """A required mode comparison m <= n does not hold."""


class ShapeError(GrassError):
    """Relational signature mismatch (dom/cod disagreement)."""


class SizeLimitError(GrassError):
    """A relational computation would materialize too many elements."""


class UsageError(GrassError):
    """A command-line argument or environment setting is malformed."""


class CheckError(GrassError):
    """A derivation violates a side condition of its rule.

    `position` is the path of premise indices from the root, so error
    messages point at the offending node.
    """

    def __init__(self, rule: str, condition: str, position: tuple[int, ...] = ()):
        self.rule = rule
        self.condition = condition
        self.position = position
        super().__init__(f"{rule} at {list(position)}: {condition}")


class ElaborationError(GrassError):
    """The best-effort elaborator could not discharge an obligation.

    Not a proof of untypability.
    """


class ParseError(GrassError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NestingError(ParseError):
    """Input nested more deeply than the parser reads it."""


@dataclass(frozen=True)
class Violation:
    """One failed law instance, with the witness tuple that broke it."""

    law: str
    witness: tuple = ()
    detail: str = ""

    def render(self) -> str:
        parts = [self.law]
        if self.witness:
            parts.append("witness=" + repr(self.witness))
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


@dataclass(frozen=True)
class Report:
    """The violations found; empty means no counterexample found."""

    violations: tuple[Violation, ...] = ()

    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        return "\n".join(v.render() for v in self.violations)
