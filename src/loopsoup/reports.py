"""Uniform pass/fail reporting for exact and Monte Carlo checks.

Every verifier produces a TestReport: a list of statistic lines, each with the
two compared values, an uncertainty where one exists, and a verdict.  The CLI
serializes these to JSON; the test suite asserts on `passed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Z_GATE = 3.0  # |z| at or below which a z-line passes
# the battery's replica count and seed, at which its fixed TV and KS bounds are
# calibrated; run_all and `loopsoup verify-all` both default to them
DEFAULT_REPLICAS = 100_000
DEFAULT_SEED = 20260816

# the field and local-time conventions (see `fields`), embedded in every report
CONVENTIONS = {
    "complex_field": "E[phi conj(phi)] = G, phi = (phi1 + i phi2)/sqrt(2)",
    "isomorphism": "occupation(1/2) ~ phi_real^2/2; occupation(1) ~ |phi|^2",
    "det_identity_diagonal": "chi_x (1 + N_x) / lam_x",
    "local_time": "chain time divided by lam",
}


def _finite(value: float | None) -> float | None:
    return value if value is None or math.isfinite(value) else None


@dataclass
class StatLine:
    statistic: str
    lhs: float
    rhs: float
    stderr: float | None
    z: float | None
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        """The line for JSON; a non-finite value becomes None (null), since
        RFC 8259 JSON has no Infinity or NaN."""
        return {
            "statistic": self.statistic,
            "lhs": _finite(self.lhs),
            "rhs": _finite(self.rhs),
            "stderr": _finite(self.stderr),
            "z": _finite(self.z),
            "pass": self.passed,
            "note": self.note,
        }


@dataclass
class TestReport:
    name: str
    lines: list = field(default_factory=list)
    conventions: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def add_z(self, statistic: str, lhs: float, rhs: float, stderr: float,
              note: str = "") -> StatLine:
        """Compare an estimate to a target with the z-score gate Z_GATE."""
        if stderr > 0:
            z = (lhs - rhs) / stderr
        else:
            z = 0.0 if lhs == rhs else float("inf")
        line = StatLine(statistic, float(lhs), float(rhs), float(stderr),
                        float(z), bool(abs(z) <= Z_GATE), note)
        self.lines.append(line)
        return line

    def add_bound(self, statistic: str, value: float, bound: float,
                  note: str = "") -> StatLine:
        """Assert value <= bound (distances, TV, KS, relative errors)."""
        line = StatLine(statistic, float(value), float(bound), None, None,
                        bool(value <= bound), note)
        self.lines.append(line)
        return line

    def add_info(self, statistic: str, value: float, note: str = "") -> StatLine:
        """Record a value with no gate; always passes."""
        line = StatLine(statistic, float(value), float(value), None, None, True, note)
        self.lines.append(line)
        return line

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "lines": [line.to_dict() for line in self.lines],
            "conventions": self.conventions,
            "meta": self.meta,
        }
