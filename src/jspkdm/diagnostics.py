"""Non-fatal findings collected while analyzing a web application.

Every stage reports through :func:`emit` into the one list that the caller
passes down (the run's sink); this module is the only place that builds a
:class:`Diagnostic`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    """A recoverable anomaly: the run continues, the report records it."""

    category: str
    message: str
    location: str | None = None

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
