"""The dataset / projection data model.

The paper's input is an array ``A ∈ [Q]^{n×d}`` whose rows arrive as a
stream; a *column query* ``C ⊆ [d]`` arrives only after the data has been
observed and induces the projected array ``A^C`` (the restriction of every
row to the columns in ``C``).  All statistics of interest are functions of
the *frequency vector* ``f(A, C)`` counting how often each pattern
``w ∈ [Q]^{|C|}`` occurs among the projected rows.

:class:`Dataset` wraps a NumPy integer array with alphabet validation and
provides projection and streaming iteration; the exact frequency vector of
a projection is :meth:`repro.core.frequency.FrequencyVector.from_dataset`.
:class:`ColumnQuery` is a validated, canonicalised column subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..coding.words import Word
from ..errors import AlphabetError, DimensionError, InvalidParameterError, QueryError

__all__ = ["ColumnQuery", "Dataset"]


@dataclass(frozen=True)
class ColumnQuery:
    """A validated column subset ``C ⊆ [d]``.

    Columns are stored sorted and de-duplicated; the query remembers the
    dimensionality ``d`` of the array it applies to so misuse is caught
    early.
    """

    columns: tuple[int, ...]
    dimension: int

    @classmethod
    def of(cls, columns: Iterable[int], dimension: int) -> "ColumnQuery":
        """Build a query from any iterable of column indices."""
        canonical = tuple(sorted(set(int(column) for column in columns)))
        return cls(columns=canonical, dimension=int(dimension))

    @classmethod
    def all_columns(cls, dimension: int) -> "ColumnQuery":
        """The query selecting every column."""
        return cls.of(range(dimension), dimension)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise QueryError(f"dimension must be >= 1, got {self.dimension}")
        if not self.columns:
            raise QueryError("a column query must select at least one column")
        if tuple(sorted(set(self.columns))) != self.columns:
            raise QueryError("columns must be sorted and distinct; use ColumnQuery.of")
        if self.columns[0] < 0 or self.columns[-1] >= self.dimension:
            raise QueryError(
                f"columns {self.columns} outside the valid range [0, {self.dimension})"
            )

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[int]:
        return iter(self.columns)

    def __contains__(self, column: object) -> bool:
        return column in self.columns

    def as_set(self) -> frozenset[int]:
        """The query as a frozen set of column indices."""
        return frozenset(self.columns)

    def complement(self) -> "ColumnQuery":
        """The query selecting exactly the columns *not* in this query.

        Raises
        ------
        QueryError
            If the query already selects every column (the complement would
            be empty).
        """
        remaining = [c for c in range(self.dimension) if c not in self.as_set()]
        if not remaining:
            raise QueryError("complement of the full query is empty")
        return ColumnQuery.of(remaining, self.dimension)

    def symmetric_difference_size(self, other: "ColumnQuery") -> int:
        """``|C Δ C'|`` — the distortion driver in the α-net analysis."""
        if other.dimension != self.dimension:
            raise QueryError(
                "cannot compare queries over different dimensions: "
                f"{self.dimension} vs {other.dimension}"
            )
        return len(self.as_set() ^ other.as_set())


class Dataset:
    """An ``n × d`` array over the alphabet ``[Q]`` with projection support.

    Parameters
    ----------
    rows:
        A 2-D integer array-like (``n`` rows, ``d`` columns); values must lie
        in ``[0, alphabet_size)``.
    alphabet_size:
        The alphabet size ``Q >= 2``.
    """

    def __init__(self, rows: Sequence[Sequence[int]] | np.ndarray, alphabet_size: int = 2) -> None:
        if alphabet_size < 2:
            raise InvalidParameterError(
                f"alphabet_size must be >= 2, got {alphabet_size}"
            )
        array = np.asarray(rows, dtype=np.int64)
        if array.ndim != 2:
            raise DimensionError(
                f"rows must form a 2-D array, got {array.ndim} dimensions"
            )
        if array.shape[0] < 1 or array.shape[1] < 1:
            raise DimensionError(f"dataset must be non-empty, got shape {array.shape}")
        if array.min() < 0 or array.max() >= alphabet_size:
            raise AlphabetError(
                f"dataset values must lie in [0, {alphabet_size}); "
                f"found range [{array.min()}, {array.max()}]"
            )
        self._array = array
        self._alphabet_size = int(alphabet_size)

    @classmethod
    def from_words(
        cls, words: Iterable[Sequence[int]], alphabet_size: int = 2
    ) -> "Dataset":
        """Build a dataset whose rows are the given words (in order)."""
        rows = [tuple(int(symbol) for symbol in word) for word in words]
        if not rows:
            raise DimensionError("cannot build a dataset from zero words")
        return cls(np.array(rows, dtype=np.int64), alphabet_size=alphabet_size)

    @classmethod
    def random(
        cls,
        n_rows: int,
        n_columns: int,
        alphabet_size: int = 2,
        seed: int = 0,
    ) -> "Dataset":
        """A dataset with uniformly random entries (useful in tests)."""
        if n_rows < 1 or n_columns < 1:
            raise DimensionError(
                f"dataset must be non-empty, got shape ({n_rows}, {n_columns})"
            )
        rng = np.random.default_rng(seed)
        return cls(
            rng.integers(0, alphabet_size, size=(n_rows, n_columns)),
            alphabet_size=alphabet_size,
        )

    @property
    def alphabet_size(self) -> int:
        """The alphabet size ``Q``."""
        return self._alphabet_size

    @property
    def n_rows(self) -> int:
        """Number of rows ``n``."""
        return int(self._array.shape[0])

    @property
    def n_columns(self) -> int:
        """Number of columns ``d``."""
        return int(self._array.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, d)``."""
        return (self.n_rows, self.n_columns)

    def to_array(self) -> np.ndarray:
        """Return a copy of the underlying array."""
        return self._array.copy()

    def row(self, index: int) -> Word:
        """Return row ``index`` as a word (tuple of ints)."""
        if not 0 <= index < self.n_rows:
            raise DimensionError(f"row index {index} outside [0, {self.n_rows})")
        return tuple(int(value) for value in self._array[index])

    def iter_rows(self) -> Iterator[Word]:
        """Iterate over rows as words, in stream (row) order."""
        for row in self._array:
            yield tuple(int(value) for value in row)

    def iter_row_blocks(self, block_size: int) -> Iterator[np.ndarray]:
        """Iterate over the rows as ``(m, d)`` array blocks, in stream order.

        Blocks are read-only views into the dataset's storage (no per-row
        tuple conversion), which is what makes dataset-backed batch ingest
        free of interpreter overhead.  The final block may be shorter.
        """
        if block_size < 1:
            raise InvalidParameterError(
                f"block_size must be >= 1, got {block_size}"
            )
        for start in range(0, self.n_rows, block_size):
            block = self._array[start : start + block_size]
            block.flags.writeable = False
            yield block

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self) -> Iterator[Word]:
        return self.iter_rows()

    def query(self, columns: Iterable[int]) -> ColumnQuery:
        """Build a :class:`ColumnQuery` validated against this dataset."""
        return ColumnQuery.of(columns, self.n_columns)

    def _resolve_query(self, query: ColumnQuery | Iterable[int]) -> ColumnQuery:
        if isinstance(query, ColumnQuery):
            if query.dimension != self.n_columns:
                raise QueryError(
                    f"query dimension {query.dimension} does not match dataset "
                    f"dimension {self.n_columns}"
                )
            return query
        return self.query(query)

    def project(self, query: ColumnQuery | Iterable[int]) -> "Dataset":
        """Return the projected dataset ``A^C`` (rows restricted to ``C``)."""
        resolved = self._resolve_query(query)
        return Dataset(
            self._array[:, list(resolved.columns)], alphabet_size=self._alphabet_size
        )

    def concatenate(self, other: "Dataset") -> "Dataset":
        """Stack another dataset's rows below this one (same ``d`` and ``Q``)."""
        if other.n_columns != self.n_columns:
            raise DimensionError(
                f"cannot concatenate datasets with {self.n_columns} and "
                f"{other.n_columns} columns"
            )
        if other.alphabet_size != self.alphabet_size:
            raise AlphabetError(
                "cannot concatenate datasets over different alphabets: "
                f"{self.alphabet_size} vs {other.alphabet_size}"
            )
        return Dataset(
            np.vstack([self._array, other._array]), alphabet_size=self._alphabet_size
        )

    def size_in_bits(self) -> int:
        """Space needed to store the raw array (``n * d * ceil(log2 Q)`` bits)."""
        bits_per_symbol = max(1, int(np.ceil(np.log2(self._alphabet_size))))
        return self.n_rows * self.n_columns * bits_per_symbol

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Dataset(n_rows={self.n_rows}, n_columns={self.n_columns}, "
            f"alphabet_size={self.alphabet_size})"
        )
