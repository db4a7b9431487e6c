"""Named residual entries with tolerances and pass/fail verdicts.

A check hands VerificationReport.add its residual at each point it
checked; the entry keeps the worst of them and their count, so that no
check reduces over its points itself.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckEntry:
    name: str
    residual: float
    tolerance: float
    points_checked: int = 1

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class VerificationReport:
    entries: list = field(default_factory=list)

    def add(self, name, residual, tolerance):
        """Add the entry of a check whose residual at each point it checked
        is residual (an array of any shape, or a number for one point): it
        reads the largest of them, and points_checked is their count."""
        entry = CheckEntry(name, float(np.max(residual)), float(tolerance), int(np.size(residual)))
        self.entries.append(entry)
        return entry

    def __getitem__(self, name: str) -> CheckEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def summary_lines(self):
        width = max((len(e.name) for e in self.entries), default=0)
        return [
            f"{'PASS' if e.passed else 'FAIL'}  {e.name:<{width}}  "
            f"residual={e.residual:.3e}  tol={e.tolerance:.1e}  points={e.points_checked}"
            for e in self.entries
        ]
