"""Uniform pass/fail reporting for verification checks."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CheckResult", "VerificationReport"]


def _sup(values):
    """max |v|, or NaN if any value is NaN (max alone keeps a NaN only in first place).

    C-level passes over the magnitudes: their sum is NaN iff some value is,
    since an infinite one only makes it infinite.
    """
    sizes = list(map(abs, values))
    total = sum(sizes)
    return total if total != total else max(sizes)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        text = f"[{tag}] {self.name}: measured={self.measured:.3e} tol={self.tolerance:.1e}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class VerificationReport:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, measured: float, tolerance: float, detail: str = "",
            passed: bool | None = None) -> CheckResult:
        if passed is None:
            passed = abs(measured) <= tolerance
        result = CheckResult(name, bool(passed), float(measured), float(tolerance), detail)
        self.checks.append(result)
        return result

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"== {self.title} =="]
        out.extend(c.line() for c in self.checks)
        n_fail = sum(not c.passed for c in self.checks)
        out.append(f"-- {len(self.checks)} checks, {n_fail} failed --")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())
