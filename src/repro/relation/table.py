"""The in-memory columnar :class:`Relation`.

This is the substrate every other subsystem is built on: datasets load into
relations, OLAP slicing happens through predicates, and the explanation cube
is built from a single pass over a relation's dimension columns.  Columns
are numpy arrays; dimension columns typically hold strings or small ints,
measure columns hold float64.
"""

from __future__ import annotations

import hashlib
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import QueryError, SchemaError
from repro.relation.predicates import Predicate
from repro.relation.schema import Attribute, AttributeKind, Schema


def _as_column(values: Sequence[Any] | np.ndarray) -> np.ndarray:
    """Normalize input values to a 1-D numpy array (floats stay float64).

    An array already in float64 is adopted as-is (no defensive copy) —
    that keeps memory-mapped source columns (:mod:`repro.store`) paged
    lazily instead of being materialized on relation construction.
    Columns are treated as immutable by convention throughout.
    """
    array = np.asarray(values)
    if array.ndim != 1:
        raise QueryError(f"columns must be 1-D, got shape {array.shape}")
    if array.dtype.kind == "f" and array.dtype != np.float64:
        array = array.astype(np.float64)
    return array


def factorize(column: Sequence[Any] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of a 1-D column and each row's rank among them.

    Returns exactly what ``np.unique(column, return_inverse=True)`` returns
    (``codes`` as a flat ``intp`` array), but object columns — the string
    cells the CSV reader produces — take a hash-based path: one dict pass
    in first-seen order, then a sort of only the *distinct* values, so the
    cost is one hash per row instead of an ``O(n log n)`` comparison sort of
    Python objects.  Values that compare equal are one group either way;
    when they differ in type (``1`` vs ``1.0``) the first-seen one is kept
    as the group's value.  Columns whose distinct values are not strictly
    ordered by ``<`` (mixed types that raise, ``NaN``) and every other
    dtype go through ``np.unique`` itself.
    """
    column = np.asarray(column)
    if column.dtype.kind == "O" and column.ndim == 1:
        try:
            ranks = dict.fromkeys(column)
            ordered = sorted(ranks)
        except TypeError:
            ordered = None
        if ordered is not None and all(
            left < right for left, right in zip(ordered, ordered[1:])
        ):
            for rank, value in enumerate(ordered):
                ranks[value] = rank
            codes = np.fromiter(
                map(ranks.__getitem__, column), dtype=np.intp, count=column.shape[0]
            )
            return np.fromiter(ordered, dtype=object, count=len(ordered)), codes
    uniques, codes = np.unique(column, return_inverse=True)
    return uniques, codes.reshape(-1).astype(np.intp, copy=False)


class Relation:
    """An immutable bag of rows stored column-wise.

    Parameters
    ----------
    columns:
        Mapping of attribute name to a 1-D array-like.  All columns must
        have identical length and exactly cover the schema's attributes.
    schema:
        The :class:`~repro.relation.schema.Schema` describing the columns.
    """

    def __init__(self, columns: Mapping[str, Sequence[Any] | np.ndarray], schema: Schema):
        self._schema = schema
        converted: dict[str, np.ndarray] = {}
        lengths = set()
        for name in schema.names:
            if name not in columns:
                raise SchemaError(f"missing column {name!r} for schema {schema!r}")
            column = _as_column(columns[name])
            converted[name] = column
            lengths.add(column.shape[0])
        extra = set(columns) - set(schema.names)
        if extra:
            raise SchemaError(f"columns {sorted(extra)} are not in the schema")
        if len(lengths) > 1:
            raise QueryError(f"ragged columns: lengths {sorted(lengths)}")
        self._columns = converted
        self._n_rows = lengths.pop() if lengths else 0
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, Any]], schema: Schema) -> "Relation":
        """Build a relation from an iterable of row dicts."""
        rows = list(rows)
        columns = {
            name: np.asarray([row[name] for row in rows]) if rows else np.asarray([])
            for name in schema.names
        }
        return cls(columns, schema)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        """A relation with zero rows."""
        return cls({name: np.asarray([]) for name in schema.names}, schema)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    def column(self, name: str) -> np.ndarray:
        """The raw column array for ``name`` (do not mutate)."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; available: {sorted(self._columns)}"
            ) from None

    def columns(self, names: Sequence[str] | None = None) -> dict[str, np.ndarray]:
        """Bulk columnar access: ``{name: array}`` for the requested columns.

        One call hands out several attribute arrays without materializing
        rows — candidate enumeration uses it to fetch each explain-by
        subset at once.  ``names`` defaults to every schema attribute in
        schema order; the returned arrays are the relation's own storage
        (do not mutate).
        """
        if names is None:
            names = self._schema.names
        return {name: self.column(name) for name in names}

    def fingerprint(self) -> str:
        """Stable SHA-256 content hash of the relation (schema + cells).

        Two relations with equal schemas and identical column contents (in
        row order) share a fingerprint; any cell, row, or schema change
        produces a different one.  The rollup cache
        (:mod:`repro.cube.cache`) uses this as the data component of its
        keys, so a cached cube can never be served for modified data.
        The hash is computed once per instance and memoized (relations are
        immutable).
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(repr(self._schema).encode("utf-8"))
            # Row count frames the fixed-width column payloads, so no
            # crafted cell contents can splice one column into the next.
            digest.update(self._n_rows.to_bytes(8, "little"))
            for name in self._schema.names:
                column = self._columns[name]
                digest.update(name.encode("utf-8"))
                # The dtype kind tag keeps e.g. str and bytes columns with
                # identical text from colliding.
                digest.update(column.dtype.kind.encode("ascii"))
                if column.dtype.kind == "O":
                    # Object columns may mix cell types (1 vs "1"), so each
                    # cell's rendering carries its type; length-prefix
                    # framing (not separators, which user data could
                    # contain) keeps cell boundaries unambiguous.
                    parts: list[bytes] = []
                    for value in column:
                        cell = f"{type(value).__name__}:{value}".encode(
                            "utf-8", errors="backslashreplace"
                        )
                        parts.append(len(cell).to_bytes(4, "little"))
                        parts.append(cell)
                    digest.update(b"".join(parts))
                else:
                    # Fixed-width dtypes (numeric, U, S): the dtype header
                    # plus NUL padding keeps ("ab","c") != ("a","bc") with
                    # no per-row Python loop.  S columns hash their raw
                    # bytes — never decoded, so arbitrary byte values are
                    # fine.
                    digest.update(column.dtype.str.encode("utf-8"))
                    digest.update(np.ascontiguousarray(column).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize all rows as dicts (tests and small outputs only)."""
        names = self._schema.names
        return [
            {name: self._columns[name][i].item() if hasattr(self._columns[name][i], "item") else self._columns[name][i] for name in names}
            for i in range(self._n_rows)
        ]

    def __repr__(self) -> str:
        return f"Relation({self._n_rows} rows, schema={self._schema!r})"

    def equals(self, other: "Relation") -> bool:
        """Exact equality of schema and cell contents (order-sensitive)."""
        if self._schema != other._schema or self._n_rows != other._n_rows:
            return False
        return all(
            np.array_equal(self._columns[name], other._columns[name])
            for name in self._schema.names
        )

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------
    def filter(self, predicate: Predicate) -> "Relation":
        """Rows satisfying ``predicate`` (paper: ``sigma_E R``)."""
        return self.take(predicate.mask(self))

    def exclude(self, predicate: Predicate) -> "Relation":
        """Rows *not* satisfying ``predicate`` (paper: ``R - sigma_E R``)."""
        return self.take(~predicate.mask(self))

    def take(self, selector: np.ndarray) -> "Relation":
        """Rows selected by a boolean mask or an index array."""
        selector = np.asarray(selector)
        columns = {name: column[selector] for name, column in self._columns.items()}
        return Relation(columns, self._schema)

    def project(self, names: Sequence[str]) -> "Relation":
        """Keep only the named columns, in the given order."""
        schema = self._schema.project(names)
        return Relation({name: self._columns[name] for name in names}, schema)

    def with_column(
        self, name: str, values: Sequence[Any] | np.ndarray, kind: AttributeKind
    ) -> "Relation":
        """A new relation with one extra column appended to the schema."""
        if name in self._schema:
            raise SchemaError(f"column {name!r} already exists")
        schema = Schema(list(self._schema) + [Attribute(name, kind)])
        columns = dict(self._columns)
        columns[name] = values
        return Relation(columns, schema)

    def concat(self, other: "Relation") -> "Relation":
        """Rows of ``self`` followed by rows of ``other`` (schemas must match)."""
        if self._schema != other._schema:
            raise SchemaError("cannot concat relations with different schemas")
        columns = {
            name: np.concatenate([self._columns[name], other._columns[name]])
            for name in self._schema.names
        }
        return Relation(columns, self._schema)

    def sort_by(self, name: str) -> "Relation":
        """Rows sorted ascending by the named column (stable)."""
        order = np.argsort(self.column(name), kind="stable")
        return self.take(order)

    def head(self, k: int) -> "Relation":
        """The first ``k`` rows."""
        return self.take(np.arange(min(k, self._n_rows)))

    def distinct_values(self, name: str) -> np.ndarray:
        """Sorted unique values of the named column."""
        return np.unique(self.column(name))

    # ------------------------------------------------------------------
    # Encoding helpers used by group-by and the cube
    # ------------------------------------------------------------------
    def encode(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Factorize a column into ``(codes, unique_values)``.

        ``codes[i]`` indexes into ``unique_values`` (sorted ascending), so
        downstream group accumulation can use dense integer buckets.
        """
        values, codes = factorize(self.column(name))
        return codes, values

    def time_positions(self, time_attr: str | None = None) -> tuple[np.ndarray, tuple[Hashable, ...]]:
        """Factorize the time column into positions along the sorted time axis."""
        name = time_attr or self._schema.require_time()
        codes, values = self.encode(name)
        labels = tuple(v.item() if hasattr(v, "item") else v for v in values)
        return codes, labels
