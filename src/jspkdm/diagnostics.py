"""Non-fatal findings collected while analyzing a web application.

Every stage reports through :func:`emit` into the one list that the caller
passes down (the run's sink); this module is the only place that builds a
:class:`Diagnostic`.
"""

from __future__ import annotations

from ._records import Value


class Diagnostic(Value):
    """A recoverable anomaly: the run continues, the report records it.
    Immutable, slotted, and equal to another with the same fields."""

    __slots__ = ("category", "message", "location")

    def __init__(self, category: str, message: str, location: str | None = None):
        Value.__init__(self, category, message, location)

    def to_dict(self) -> dict:
        d = {"category": self.category, "message": self.message}
        if self.location is not None:
            d["location"] = self.location
        return d


def emit(sink: list[Diagnostic] | None, category: str, message: str,
         location: str | None = None) -> None:
    """Append a diagnostic to ``sink`` if the caller supplied one."""
    if sink is not None:
        sink.append(Diagnostic(category, message, location))
