"""Named verification results with stable, diff-friendly formatting."""

from __future__ import annotations

import math
from dataclasses import dataclass


def _fmt(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.12e}{v.imag:+.12e}j"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12e}"
    return str(v)


@dataclass
class CheckReport:
    """One verification result: lhs vs rhs with errors, tolerances and a verdict.

    ``passed`` follows the rule abs_err <= tol_abs or rel_err <= tol_rel.
    ``claim`` is a short statement of the identity or bound being checked.
    """

    name: str
    claim: str
    lhs: complex | float
    rhs: complex | float
    abs_err: float
    rel_err: float
    tol_abs: float
    tol_rel: float
    passed: bool
    skipped: bool = False
    notes: str = ""

    @staticmethod
    def equality(name: str, claim: str, lhs, rhs, *, tol_rel: float, tol_abs: float = 0.0,
                 notes: str = "") -> "CheckReport":
        """Report for an identity lhs = rhs."""
        lhs, rhs = complex(lhs), complex(rhs)
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        rel_err = abs_err / scale if scale > 0 else 0.0
        passed = abs_err <= tol_abs or rel_err <= tol_rel
        return CheckReport(name, claim, lhs, rhs, abs_err, rel_err, tol_abs, tol_rel, passed, notes=notes)

    @staticmethod
    def bound(name: str, claim: str, lhs, rhs, *, tol_rel: float, tol_abs: float = 0.0,
              notes: str = "") -> "CheckReport":
        """Report for a one-sided bound lhs <= rhs (errors measure the violation).

        Against a zero bound the violation itself plays the relative role, so
        defect-style checks can be written as bound(defect, 0).
        """
        lhs, rhs = float(lhs), float(rhs)
        violation = max(0.0, lhs - rhs)
        rel_err = violation / abs(rhs) if rhs != 0.0 else violation
        passed = violation <= tol_abs or rel_err <= tol_rel
        return CheckReport(name, claim, lhs, rhs, violation, rel_err, tol_abs, tol_rel, passed, notes=notes)

    @staticmethod
    def flag(name: str, claim: str, ok: bool, *, notes: str = "") -> "CheckReport":
        """Report for a yes/no condition."""
        err = 0.0 if ok else math.inf
        return CheckReport(name, claim, 1.0 if ok else 0.0, 1.0, err, err, 0.0, 0.0, ok, notes=notes)

    @staticmethod
    def skip(name: str, claim: str, reason: str) -> "CheckReport":
        """Report for a check that does not apply to this scenario."""
        return CheckReport(name, claim, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, True, skipped=True, notes=reason)

    def row(self) -> str:
        """Single structured line with a stable field order."""
        parts = [
            f"check={self.name}",
            f"claim={self.claim!r}",
            f"lhs={_fmt(self.lhs)}",
            f"rhs={_fmt(self.rhs)}",
            f"abs_err={_fmt(self.abs_err)}",
            f"rel_err={_fmt(self.rel_err)}",
            f"tol_abs={_fmt(self.tol_abs)}",
            f"tol_rel={_fmt(self.tol_rel)}",
            f"pass={_fmt(self.passed)}",
            f"skipped={_fmt(self.skipped)}",
        ]
        if self.notes:
            parts.append(f"notes={self.notes!r}")
        return " ".join(parts)

    def text_row(self) -> str:
        """Human-oriented one-line summary."""
        if self.skipped:
            status = "SKIP"
        else:
            status = "PASS" if self.passed else "FAIL"
        detail = f"abs={self.abs_err:.3e} rel={self.rel_err:.3e}"
        return f"[{status}] {self.name:<26} {detail}  {self.notes}".rstrip()


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
