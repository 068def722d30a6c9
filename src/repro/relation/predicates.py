"""Predicates over relations: equality slices, comparisons, conjunctions.

An *explanation* in the paper (Definition 3.1) is a conjunction of equality
predicates over explain-by attributes.  :class:`Conjunction` of :class:`Eq`
terms is the canonical representation used by the rest of the library; the
other predicate types support general OLAP slicing and dicing on relations
(paper section 1: "users can freely perform OLAP operations").
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from repro.exceptions import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.relation.table import Relation


class Predicate(abc.ABC):
    """A boolean condition on the rows of a relation."""

    @abc.abstractmethod
    def mask(self, relation: "Relation") -> np.ndarray:
        """Boolean numpy array selecting the rows that satisfy the predicate."""

    @abc.abstractmethod
    def attributes(self) -> tuple[str, ...]:
        """Attribute names referenced by the predicate."""

    def __and__(self, other: "Predicate") -> "And":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Or":
        return Or([self, other])

    def __invert__(self) -> "Not":
        return Not(self)


class Eq(Predicate):
    """``attribute == value`` equality slice."""

    __slots__ = ("attribute_name", "value")

    def __init__(self, attribute_name: str, value: Hashable):
        self.attribute_name = attribute_name
        self.value = value

    def mask(self, relation: "Relation") -> np.ndarray:
        return relation.column(self.attribute_name) == self.value

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute_name,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Eq):
            return NotImplemented
        return (self.attribute_name, self.value) == (other.attribute_name, other.value)

    def __hash__(self) -> int:
        return hash((Eq, self.attribute_name, self.value))

    def __repr__(self) -> str:
        return f"{self.attribute_name}={self.value}"


class In(Predicate):
    """``attribute IN values`` membership slice."""

    __slots__ = ("attribute_name", "values")

    def __init__(self, attribute_name: str, values: Iterable[Hashable]):
        self.attribute_name = attribute_name
        self.values = frozenset(values)

    def mask(self, relation: "Relation") -> np.ndarray:
        column = relation.column(self.attribute_name)
        return np.isin(column, list(self.values))

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute_name,)

    def __repr__(self) -> str:
        return f"{self.attribute_name} IN {sorted(map(repr, self.values))}"


class _Comparison(Predicate):
    """Shared implementation for scalar comparison predicates."""

    __slots__ = ("attribute_name", "value")
    _op_name = "?"

    def __init__(self, attribute_name: str, value: float):
        self.attribute_name = attribute_name
        self.value = value

    def _compare(self, column: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mask(self, relation: "Relation") -> np.ndarray:
        return self._compare(relation.column(self.attribute_name))

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute_name,)

    def __repr__(self) -> str:
        return f"{self.attribute_name}{self._op_name}{self.value}"


class Gt(_Comparison):
    _op_name = ">"

    def _compare(self, column: np.ndarray) -> np.ndarray:
        return column > self.value


class Ge(_Comparison):
    _op_name = ">="

    def _compare(self, column: np.ndarray) -> np.ndarray:
        return column >= self.value


class Lt(_Comparison):
    _op_name = "<"

    def _compare(self, column: np.ndarray) -> np.ndarray:
        return column < self.value


class Le(_Comparison):
    _op_name = "<="

    def _compare(self, column: np.ndarray) -> np.ndarray:
        return column <= self.value


class Between(Predicate):
    """``low <= attribute <= high`` range slice (both bounds inclusive)."""

    __slots__ = ("attribute_name", "low", "high")

    def __init__(self, attribute_name: str, low: float, high: float):
        if low > high:
            raise QueryError(f"Between bounds reversed: {low} > {high}")
        self.attribute_name = attribute_name
        self.low = low
        self.high = high

    def mask(self, relation: "Relation") -> np.ndarray:
        column = relation.column(self.attribute_name)
        return (column >= self.low) & (column <= self.high)

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute_name,)

    def __repr__(self) -> str:
        return f"{self.low}<={self.attribute_name}<={self.high}"


class And(Predicate):
    """Conjunction of arbitrary predicates."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[Predicate]):
        if not terms:
            raise QueryError("And requires at least one term")
        self.terms = tuple(terms)

    def mask(self, relation: "Relation") -> np.ndarray:
        result = self.terms[0].mask(relation)
        for term in self.terms[1:]:
            result = result & term.mask(relation)
        return result

    def attributes(self) -> tuple[str, ...]:
        names: list[str] = []
        for term in self.terms:
            names.extend(term.attributes())
        return tuple(names)

    def __repr__(self) -> str:
        return " & ".join(map(repr, self.terms))


class Or(Predicate):
    """Disjunction of arbitrary predicates."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[Predicate]):
        if not terms:
            raise QueryError("Or requires at least one term")
        self.terms = tuple(terms)

    def mask(self, relation: "Relation") -> np.ndarray:
        result = self.terms[0].mask(relation)
        for term in self.terms[1:]:
            result = result | term.mask(relation)
        return result

    def attributes(self) -> tuple[str, ...]:
        names: list[str] = []
        for term in self.terms:
            names.extend(term.attributes())
        return tuple(names)

    def __repr__(self) -> str:
        return " | ".join(map(repr, self.terms))


class Not(Predicate):
    """Negation of a predicate."""

    __slots__ = ("term",)

    def __init__(self, term: Predicate):
        self.term = term

    def mask(self, relation: "Relation") -> np.ndarray:
        return ~self.term.mask(relation)

    def attributes(self) -> tuple[str, ...]:
        return self.term.attributes()

    def __repr__(self) -> str:
        return f"NOT({self.term!r})"


class Conjunction(Predicate):
    """A canonical conjunction of equality predicates (Definition 3.1).

    Terms are stored sorted by attribute name, which makes two conjunctions
    over the same slices compare and hash equal regardless of construction
    order.  Each attribute may appear at most once (repeating an attribute
    with two different values would select no rows, and with the same value
    would be redundant).
    """

    __slots__ = ("_items",)

    def __init__(self, terms: Iterable[Eq]):
        items = sorted((term.attribute_name, term.value) for term in terms)
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise QueryError(f"conjunction repeats an attribute: {names}")
        self._items: tuple[tuple[str, Hashable], ...] = tuple(items)

    @classmethod
    def from_items(cls, items: Iterable[tuple[str, Hashable]]) -> "Conjunction":
        """Build from ``(attribute, value)`` pairs."""
        return cls(Eq(name, value) for name, value in items)

    @classmethod
    def from_sorted_items(cls, items: tuple[tuple[str, Hashable], ...]) -> "Conjunction":
        """Wrap pairs already sorted by attribute, each attribute once.

        The fast path for sub-conjunctions of an existing conjunction,
        whose items always satisfy both conditions; nothing is checked.
        """
        conjunction = cls.__new__(cls)
        conjunction._items = items
        return conjunction

    @property
    def items(self) -> tuple[tuple[str, Hashable], ...]:
        """Sorted ``(attribute, value)`` pairs."""
        return self._items

    @property
    def order(self) -> int:
        """Number of predicates, the explanation order ``beta``."""
        return len(self._items)

    def mask(self, relation: "Relation") -> np.ndarray:
        if not self._items:
            return np.ones(relation.n_rows, dtype=bool)
        name, value = self._items[0]
        result = relation.column(name) == value
        for name, value in self._items[1:]:
            result = result & (relation.column(name) == value)
        return result

    def attributes(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._items)

    def value_of(self, attribute_name: str) -> Hashable:
        """Value fixed for ``attribute_name``; raises if not constrained."""
        for name, value in self._items:
            if name == attribute_name:
                return value
        raise QueryError(f"conjunction does not constrain {attribute_name!r}")

    def extend(self, attribute_name: str, value: Hashable) -> "Conjunction":
        """A new conjunction with one additional equality term."""
        return Conjunction.from_items(self._items + ((attribute_name, value),))

    def contains(self, other: "Conjunction") -> bool:
        """True when ``other``'s terms are a subset of this conjunction's.

        If ``self.contains(other)`` then every row satisfying ``self`` also
        satisfies ``other`` (self is the more specific slice).
        """
        return set(other._items).issubset(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Conjunction):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        if not self._items:
            return "TRUE"
        return " & ".join(f"{name}={value}" for name, value in self._items)
