"""Streaming substrate: row streams and space accounting."""

from .memory import (
    SpaceComparison,
    compare_space,
    format_bits,
    naive_storage_bits,
    per_subset_summaries,
)
from .stream import RowStream

__all__ = [
    "RowStream",
    "SpaceComparison",
    "compare_space",
    "format_bits",
    "naive_storage_bits",
    "per_subset_summaries",
]
