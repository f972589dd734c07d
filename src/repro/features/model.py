"""Schema for the threading-model feature database.

Every cell of the paper's Tables I-III is a :class:`Support`: either
unsupported (the paper's "x"), not applicable (the paper's "N/A"), or
supported with the construct(s) that provide it.  A
:class:`FeatureSet` gathers all cells for one programming model, with
one attribute per table column.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Support", "FeatureSet", "FEATURE_FIELDS"]


@dataclass(frozen=True)
class Support:
    """One table cell: support status plus the construct text.

    ``demo`` optionally names an executable demonstration of the cell —
    e.g. ``"faults:OpenMP"`` points the error-handling cell at the
    :data:`repro.faults.demos.FAULT_DEMOS` entry that runs ``omp
    cancel`` semantics under deterministic fault injection.
    """

    supported: bool
    how: str = ""
    note: str = ""
    demo: str = ""

    @classmethod
    def yes(cls, how: str, note: str = "", demo: str = "") -> "Support":
        return cls(True, how, note, demo)

    @classmethod
    def no(cls, note: str = "", demo: str = "") -> "Support":
        return cls(False, "", note, demo)

    @classmethod
    def na(cls, note: str = "", demo: str = "") -> "Support":
        """Not applicable (e.g. data movement on a host-only model)."""
        return cls(False, "", note or "N/A", demo)

    @property
    def not_applicable(self) -> bool:
        return not self.supported and self.note.startswith("N/A")

    def cell(self) -> str:
        """Rendered table-cell text, matching the paper's notation."""
        if self.supported:
            return self.how
        if self.note:
            return self.note
        return "x"

    def __bool__(self) -> bool:
        return self.supported


@dataclass(frozen=True)
class FeatureSet:
    """All feature cells for one threading programming model."""

    name: str

    # -- Table I: parallelism patterns ---------------------------------
    data_parallelism: Support
    task_parallelism: Support
    data_event_driven: Support
    offloading: Support

    # -- Table II: memory abstraction & synchronization ------------------
    memory_hierarchy: Support
    data_binding: Support
    data_movement: Support
    barrier: Support
    reduction: Support
    join: Support

    # -- Table III: mutual exclusion & others ----------------------------
    mutual_exclusion: Support
    language: str
    error_handling: Support
    tool_support: Support

    # -- runtime characterization (section III.B) -------------------------
    scheduling: str = ""
    category: str = ""

    def supports(self, feature: str) -> bool:
        """Whether ``feature`` (a field name) is supported."""
        value = getattr(self, feature, None)
        if not isinstance(value, Support):
            raise KeyError(f"{feature!r} is not a feature field")
        return value.supported


#: Every Support-typed column, in table order.
FEATURE_FIELDS: tuple[str, ...] = (
    "data_parallelism",
    "task_parallelism",
    "data_event_driven",
    "offloading",
    "memory_hierarchy",
    "data_binding",
    "data_movement",
    "barrier",
    "reduction",
    "join",
    "mutual_exclusion",
    "error_handling",
    "tool_support",
)
