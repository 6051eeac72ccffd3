"""Structured pass/fail reports returned by the verification operations."""

class Report:
    """Outcome of a check: overall verdict, counters, and any violations.

    ``details`` holds summary values; ``violations`` holds one record per
    failed case (empty when ``passed``).  Scalars and vectors in either are
    kept as they are and take their JSON form in ``to_json``.
    """

    def __init__(self, name, passed, details=None, violations=None):
        self.name, self.passed = name, passed
        self.details = {} if details is None else details
        self.violations = [] if violations is None else violations

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
