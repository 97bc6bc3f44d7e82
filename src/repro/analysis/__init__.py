"""Reporting utilities: table rendering and literature data."""

from .literature import (
    PAPER_HEADLINES,
    TABLE7_FXHENN_PAPER,
    TABLE7_LITERATURE,
    TABLE8_FPL21,
    TABLE8_FXHENN_PAPER,
    Fpl21Entry,
    LiteratureEntry,
)
from .tables import format_table, ratio_note

__all__ = [
    "Fpl21Entry",
    "LiteratureEntry",
    "PAPER_HEADLINES",
    "TABLE7_FXHENN_PAPER",
    "TABLE7_LITERATURE",
    "TABLE8_FPL21",
    "TABLE8_FXHENN_PAPER",
    "format_table",
    "ratio_note",
]
