"""Structured pass/fail reports returned by the verification operations."""

from dataclasses import dataclass, field


@dataclass
class Report:
    """Outcome of a check: overall verdict, counters, and any violations.

    ``details`` holds summary values; ``violations`` holds one record per
    failed case (empty when ``passed``).  Scalars and vectors in either are
    kept as they are and take their JSON form in ``to_json``.
    """

    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def to_json(self):
        from .serialize import json_value  # serialize imports the checks

        return {
            "check": self.name,
            "passed": self.passed,
            "details": json_value(self.details),
            "violations": json_value(self.violations),
        }

    def __bool__(self):
        return self.passed
