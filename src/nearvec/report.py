"""Structured pass/fail reports returned by the verification operations,
and ``json_value``, the one encoder of the values they and the outputs
hold."""

from .galois import GFElement


def json_value(obj):
    """The JSON form of a value held in an output or a report record:
    finite-base scalars (``GFElement`` codes) become coefficient arrays,
    complexes [re, im], vectors (tuples with an ``entries`` view) {label:
    scalar}, and containers are encoded item by item."""
    if isinstance(obj, GFElement):
        return list(obj.coeffs)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, tuple):
        obj = getattr(obj, "entries", obj)
    if isinstance(obj, dict):
        return {k: json_value(x) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_value(x) for x in obj]
    return obj


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
        return {
            "check": self.name,
            "passed": self.passed,
            "details": json_value(self.details),
            "violations": json_value(self.violations),
        }

    def __bool__(self):
        return self.passed
