"""Delta maintenance state for :class:`~repro.cube.datacube.ExplanationCube`.

The paper's real-time section (section 8) needs the cube to absorb newly
arrived rows in O(delta) instead of rebuilding from the full relation.
The finalized ``included``/``excluded`` matrices alone cannot do that for
AVG/VAR — finalization is lossy — so an *appendable* cube also retains the
pre-finalize aggregate **states** it was built from:

* one ``(n_components, n_groups, n_times)`` state array per explain-by
  attribute subset (the same arrays the columnar build scattered into),
* per-group row counts, group values, redundancy flags and parent-group
  maps (the candidate ledger), and
* the overall query's state.

:meth:`CubeAppendState.apply_delta` scatters a delta relation's rows into
those arrays **in row order with unbuffered** ``np.add.at`` **updates** —
the exact sequence a one-shot build over ``base.concat(delta)`` would have
produced — so build-then-append is *bit-identical* to one-shot building.
Appends can create candidates (a new value combination, or a formerly
containment-redundant group whose parent outgrew it) but never destroy
them: supports grow monotonically and a child can never outgrow its
parent, so group slots are append-only.

Time-axis contract
------------------
A delta row's timestamp must be either an existing label (late-arriving
records are scattered into that column) or strictly greater than the
cube's last label (the axis is extended).  A *new* label that sorts before
the current last label would shift every later time position and silently
re-index history, so it raises :class:`~repro.exceptions.QueryError`.
Rows inside the delta may arrive in any order.

Buffers grow geometrically along the time axis, so a long-running stream
pays an amortized O(delta) per update rather than an O(n) reallocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, TYPE_CHECKING

import numpy as np

from repro.cube.explanations import CandidateSet, _group_rows, _python_value
from repro.exceptions import BackfillError, QueryError, SchemaError
from repro.relation.aggregates import AggregateFunction
from repro.relation.predicates import Conjunction
from repro.relation.schema import Schema
from repro.relation.table import factorize

if TYPE_CHECKING:  # pragma: no cover
    from repro.relation.table import Relation


@dataclass(frozen=True)
class AppendInfo:
    """What one :meth:`ExplanationCube.append` actually changed.

    Consumers use this to invalidate exactly the derived artifacts the
    append touched: :meth:`repro.core.session.ExplainSession.append` drops
    only the scorer-LRU entries whose window overlaps
    ``first_changed_position``, and the streaming re-segmentation reuses
    every unit object strictly before it.

    Attributes
    ----------
    n_rows:
        Rows scattered (0 for an empty delta — a no-op append).
    old_n_times / n_times:
        Time-axis length before and after the append.
    new_labels:
        Appended time labels, in axis order.
    touched_positions:
        *Existing* time positions that received delta rows (late-arriving
        records), ascending.
    first_changed_position:
        Smallest time position whose series values may differ from before
        the append; ``old_n_times`` when the delta only extended the axis.
        Everything strictly before it is bitwise unchanged.
    candidates_changed:
        Whether the candidate set grew (new value combination, or a
        redundancy broken by new parent rows).  When true, candidate
        positions may have shifted and every derived scorer is stale.
    """

    n_rows: int
    old_n_times: int
    n_times: int
    new_labels: tuple[Hashable, ...]
    touched_positions: tuple[int, ...]
    first_changed_position: int
    candidates_changed: bool

    @property
    def is_noop(self) -> bool:
        return self.n_rows == 0


def _grow_time(buffer: np.ndarray, capacity: int) -> np.ndarray:
    """Reallocate ``buffer`` with a larger (zero-padded) last axis."""
    if buffer.shape[-1] >= capacity:
        return buffer
    new_cap = max(capacity, 2 * buffer.shape[-1], 8)
    grown = np.zeros(buffer.shape[:-1] + (new_cap,), dtype=buffer.dtype)
    grown[..., : buffer.shape[-1]] = buffer
    return grown


class SubsetLedger:
    """The append-only group ledger of one explain-by attribute subset."""

    __slots__ = (
        "attrs",
        "state",
        "counts",
        "values",
        "parents",
        "redundant",
        "conjunctions",
        "sorted_order",
        "_slot_of",
    )

    def __init__(
        self,
        attrs: tuple[str, ...],
        state: np.ndarray,
        counts: np.ndarray,
        values: Sequence[Sequence],
        parents: Sequence[np.ndarray],
        redundant: np.ndarray,
    ):
        self.attrs = attrs
        #: (n_components, n_slots, time_capacity) aggregate states.
        self.state = state
        self.counts = np.asarray(counts, dtype=np.int64)
        #: Per attribute, the group's value at each slot.
        self.values: list[list] = [list(column) for column in values]
        #: Per dropped attribute, the parent subset's slot of each group.
        self.parents: list[np.ndarray] = [
            np.asarray(p, dtype=np.intp) for p in parents
        ]
        self.redundant = np.asarray(redundant, dtype=bool)
        self.conjunctions: list[Conjunction | None] = [None] * self.n_slots
        #: Slot ids in candidate-emission order (sorted by group values);
        #: the build emits slots pre-sorted, appends re-sort on new slots.
        self.sorted_order = np.arange(self.n_slots, dtype=np.intp)
        self._slot_of: dict[tuple, int] | None = None

    @property
    def n_slots(self) -> int:
        return len(self.values[0]) if self.values else 0

    @property
    def order(self) -> int:
        return len(self.attrs)

    def combo(self, slot: int) -> tuple:
        return tuple(_python_value(column[slot]) for column in self.values)

    def conjunction(self, slot: int) -> Conjunction:
        existing = self.conjunctions[slot]
        if existing is None:
            existing = Conjunction.from_items(zip(self.attrs, self.combo(slot)))
            self.conjunctions[slot] = existing
        return existing

    def slot_index(self) -> dict[tuple, int]:
        """The combo -> slot map, materialized on first use."""
        if self._slot_of is None:
            self._slot_of = {self.combo(slot): slot for slot in range(self.n_slots)}
        return self._slot_of

    def layout(self) -> np.ndarray:
        """Non-redundant slots in candidate-emission order."""
        return self.sorted_order[~self.redundant[self.sorted_order]]

    def add_slots(self, combos: Sequence[tuple], parent_slots: Sequence[Sequence[int]]) -> int:
        """Register new groups; returns the first new slot id.

        ``parent_slots[i]`` holds, per dropped attribute, the parent
        subset's slot of ``combos[i]``.  State/counts are zero-extended;
        the caller scatters the delta rows afterwards.
        """
        first = self.n_slots
        added = len(combos)
        index = self.slot_index()
        for offset, combo in enumerate(combos):
            index[combo] = first + offset
            for column, value in zip(self.values, combo):
                column.append(value)
        self.counts = np.concatenate(
            [self.counts, np.zeros(added, dtype=np.int64)]
        )
        self.redundant = np.concatenate([self.redundant, np.zeros(added, dtype=bool)])
        self.conjunctions.extend([None] * added)
        for drop in range(len(self.parents)):
            extra = np.asarray([ps[drop] for ps in parent_slots], dtype=np.intp)
            self.parents[drop] = np.concatenate([self.parents[drop], extra])
        grown = np.zeros(
            (self.state.shape[0], first + added, self.state.shape[2]),
            dtype=self.state.dtype,
        )
        grown[:, :first, :] = self.state
        self.state = grown
        # Re-derive the emission order: new combos can sort anywhere among
        # the existing groups, and candidate order must match what a
        # one-shot enumeration over the grown relation would produce.
        combos_all = [self.combo(slot) for slot in range(self.n_slots)]
        self.sorted_order = np.asarray(
            sorted(range(self.n_slots), key=combos_all.__getitem__), dtype=np.intp
        )
        return first


class CubeAppendState:
    """Everything an :class:`ExplanationCube` needs to absorb new rows."""

    __slots__ = (
        "schema",
        "measure",
        "explain_by",
        "time_attr",
        "max_order",
        "deduplicate",
        "aggregate",
        "labels",
        "label_pos",
        "overall",
        "ledgers",
        "ledger_index",
    )

    def __init__(
        self,
        schema: Schema,
        measure: str,
        explain_by: tuple[str, ...],
        time_attr: str,
        max_order: int,
        deduplicate: bool,
        aggregate: AggregateFunction,
        labels: Sequence[Hashable],
        overall: np.ndarray,
        ledgers: Sequence[SubsetLedger],
    ):
        self.schema = schema
        self.measure = measure
        self.explain_by = explain_by
        self.time_attr = time_attr
        self.max_order = max_order
        self.deduplicate = deduplicate
        self.aggregate = aggregate
        self.labels: list[Hashable] = list(labels)
        self.label_pos = {label: pos for pos, label in enumerate(self.labels)}
        #: (n_components, time_capacity) state of the overall query.
        self.overall = overall
        self.ledgers = list(ledgers)
        self.ledger_index = {ledger.attrs: i for i, ledger in enumerate(self.ledgers)}

    # ------------------------------------------------------------------
    @classmethod
    def from_build(
        cls,
        relation: "Relation",
        candidates: CandidateSet,
        aggregate: AggregateFunction,
        measure: str,
        explain_by: tuple[str, ...],
        time_attr: str,
        max_order: int,
        deduplicate: bool,
        labels: tuple[Hashable, ...],
        overall_state: np.ndarray,
        per_subset_states: Sequence[np.ndarray],
    ) -> "CubeAppendState":
        """Capture the ledger right after a relation-scan build.

        The state arrays are adopted (not copied) — they are exactly what
        the columnar build scattered into and are not referenced elsewhere
        after finalization.
        """
        ledgers = [
            SubsetLedger(
                attrs=attrs,
                state=state,
                counts=candidates.group_counts[i],
                values=candidates.group_values[i],
                parents=candidates.parent_groups[i],
                redundant=candidates.redundant[i],
            )
            for i, (attrs, state) in enumerate(
                zip(candidates.subsets, per_subset_states)
            )
        ]
        # Seed the ledger with the conjunction objects the build already
        # made, so unchanged candidates stay the same objects.
        for position, conj in enumerate(candidates.explanations):
            subset_pos = candidates.subset_index[position]
            local_id = candidates.local_ids[position]
            ledgers[subset_pos].conjunctions[local_id] = conj
        return cls(
            schema=relation.schema,
            measure=measure,
            explain_by=explain_by,
            time_attr=time_attr,
            max_order=max_order,
            deduplicate=deduplicate,
            aggregate=aggregate,
            labels=labels,
            overall=overall_state,
            ledgers=ledgers,
        )

    # ------------------------------------------------------------------
    @property
    def n_times(self) -> int:
        return len(self.labels)

    def time_range(self) -> tuple[Hashable, Hashable]:
        """First and last time label covered by this ledger.

        The labels are maintained in axis (ascending) order, so this is
        the inclusive time span the cube's rows fall into —
        :func:`~repro.cube.datacube.merge_shard_cubes` uses it to verify
        shards are disjoint and ordered before merging.
        """
        if not self.labels:
            raise QueryError("cube covers no time points")
        return self.labels[0], self.labels[-1]

    def layouts(self) -> list[np.ndarray]:
        return [ledger.layout() for ledger in self.ledgers]

    # ------------------------------------------------------------------
    def _map_delta_times(
        self, time_column: np.ndarray
    ) -> tuple[np.ndarray, list[Hashable], list[int]]:
        """Positions for every delta row, extending the axis as needed."""
        uniques, inverse = factorize(time_column)
        unique_positions = np.empty(uniques.shape[0], dtype=np.intp)
        new_labels: list[Hashable] = []
        touched: list[int] = []
        last = self.labels[-1] if self.labels else None
        next_position = len(self.labels)
        # Validate every label before mutating, so a rejected delta leaves
        # the ledger exactly as it was.
        for index in range(uniques.shape[0]):
            label = _python_value(uniques[index])
            position = self.label_pos.get(label)
            if position is not None:
                unique_positions[index] = position
                touched.append(position)
                continue
            if last is not None and not label > last:
                raise BackfillError(
                    f"delta timestamp {label!r} precedes the cube's last "
                    f"timestamp {last!r}; appends may revisit existing "
                    "timestamps or extend the axis, never back-fill new ones"
                )
            # factorize hands labels out ascending, so new ones arrive in
            # axis order.
            unique_positions[index] = next_position
            new_labels.append(label)
            last = label
            next_position += 1
        for label in new_labels:
            self.label_pos[label] = len(self.labels)
            self.labels.append(label)
        return unique_positions[inverse], new_labels, sorted(touched)

    def _recompute_redundancy(self) -> None:
        if not self.deduplicate:
            return
        for ledger in self.ledgers:
            if ledger.order < 2:
                continue
            redundant = np.zeros(ledger.n_slots, dtype=bool)
            for drop in range(ledger.order):
                attrs = ledger.attrs[:drop] + ledger.attrs[drop + 1 :]
                parent = self.ledgers[self.ledger_index[attrs]]
                redundant |= parent.counts[ledger.parents[drop]] == ledger.counts
            ledger.redundant = redundant

    # ------------------------------------------------------------------
    def apply_delta(self, delta: "Relation") -> AppendInfo:
        """Scatter a delta relation into the ledger (in place).

        Returns the :class:`AppendInfo` describing what changed.  The
        caller (:meth:`ExplanationCube.append`) re-finalizes the touched
        cells of the published series arrays afterwards.
        """
        if delta.schema != self.schema:
            raise SchemaError(
                "delta schema does not match the cube's base relation schema"
            )
        old_n = self.n_times
        old_layouts = self.layouts()
        if delta.n_rows == 0:
            return AppendInfo(
                n_rows=0,
                old_n_times=old_n,
                n_times=old_n,
                new_labels=(),
                touched_positions=(),
                first_changed_position=old_n,
                candidates_changed=False,
            )

        positions, new_labels, touched = self._map_delta_times(
            delta.column(self.time_attr)
        )
        n_times = self.n_times
        values = delta.column(self.measure).astype(np.float64)

        self.overall = _grow_time(self.overall, n_times)
        self.aggregate.scatter_into(self.overall, values, positions)

        # One memo for every ledger: each delta column is factorized once,
        # and a subset extends the grouping of its prefix subset.
        memo: dict = {}
        for ledger in self.ledgers:
            group_ids, representatives = _group_rows(delta, ledger.attrs, memo)
            columns = delta.columns(ledger.attrs)
            slot_of = ledger.slot_index()
            slot_map = np.empty(representatives.shape[0], dtype=np.intp)
            fresh_combos: list[tuple] = []
            fresh_parents: list[list[int]] = []
            fresh_at: list[int] = []
            for group in range(representatives.shape[0]):
                row = representatives[group]
                combo = tuple(
                    _python_value(columns[name][row]) for name in ledger.attrs
                )
                slot = slot_of.get(combo)
                if slot is None:
                    parent_slots = []
                    for drop in range(ledger.order if ledger.order > 1 else 0):
                        attrs = ledger.attrs[:drop] + ledger.attrs[drop + 1 :]
                        parent = self.ledgers[self.ledger_index[attrs]]
                        parent_combo = combo[:drop] + combo[drop + 1 :]
                        # Parents are processed first, so any row matching
                        # this combo already registered the parent combo.
                        parent_slots.append(parent.slot_index()[parent_combo])
                    fresh_at.append(group)
                    fresh_combos.append(combo)
                    fresh_parents.append(parent_slots)
                else:
                    slot_map[group] = slot
            if fresh_combos:
                first = ledger.add_slots(fresh_combos, fresh_parents)
                for offset, group in enumerate(fresh_at):
                    slot_map[group] = first + offset
            ledger.state = _grow_time(ledger.state, n_times)
            row_slots = slot_map[group_ids]
            np.add.at(ledger.counts, row_slots, 1)
            self.aggregate.scatter_into(ledger.state, values, (row_slots, positions))

        self._recompute_redundancy()
        candidates_changed = any(
            not np.array_equal(old, ledger.layout())
            for old, ledger in zip(old_layouts, self.ledgers)
        )
        first_changed = touched[0] if touched else old_n
        return AppendInfo(
            n_rows=delta.n_rows,
            old_n_times=old_n,
            n_times=n_times,
            new_labels=tuple(new_labels),
            touched_positions=tuple(touched),
            first_changed_position=first_changed,
            candidates_changed=candidates_changed,
        )

    # ------------------------------------------------------------------
    def clone(self) -> "CubeAppendState":
        """A deep, independent copy (used by :func:`merge_cubes`)."""
        ledgers = []
        for ledger in self.ledgers:
            copy = SubsetLedger(
                attrs=ledger.attrs,
                state=ledger.state.copy(),
                counts=ledger.counts.copy(),
                values=[list(column) for column in ledger.values],
                parents=[p.copy() for p in ledger.parents],
                redundant=ledger.redundant.copy(),
            )
            copy.conjunctions = list(ledger.conjunctions)
            copy.sorted_order = ledger.sorted_order.copy()
            ledgers.append(copy)
        return CubeAppendState(
            schema=self.schema,
            measure=self.measure,
            explain_by=self.explain_by,
            time_attr=self.time_attr,
            max_order=self.max_order,
            deduplicate=self.deduplicate,
            aggregate=self.aggregate,
            labels=self.labels,
            overall=self.overall.copy(),
            ledgers=ledgers,
        )

    def absorb(self, other: "CubeAppendState") -> None:
        """Merge another ledger's states into this one (aggregate.merge).

        ``other``'s time labels must each exist here or extend the axis
        (the same contract as :meth:`apply_delta`).  Exact when no
        ``(group, time)`` bucket holds rows on both sides; otherwise the
        merged state equals the concatenated build up to float-addition
        reassociation.
        """
        if other.schema != self.schema:
            raise SchemaError("cannot merge cubes over different schemas")
        other_n = other.n_times
        position_map = np.empty(other_n, dtype=np.intp)
        last = self.labels[-1] if self.labels else None
        for position, label in enumerate(other.labels):
            existing = self.label_pos.get(label)
            if existing is None:
                if last is not None and not label > last:
                    raise QueryError(
                        f"cannot merge: timestamp {label!r} would back-fill "
                        f"before this cube's last timestamp {last!r}"
                    )
                existing = len(self.labels)
                self.labels.append(label)
                self.label_pos[label] = existing
                last = label
            position_map[position] = existing
        n_times = self.n_times
        aggregate = self.aggregate

        self.overall = _grow_time(self.overall, n_times)
        self.overall[:, position_map] = aggregate.merge(
            self.overall[:, position_map], other.overall[:, :other_n]
        )
        for mine, theirs in zip(self.ledgers, other.ledgers):
            mine.state = _grow_time(mine.state, n_times)
            slot_of = mine.slot_index()
            for other_slot in range(theirs.n_slots):
                combo = theirs.combo(other_slot)
                slot = slot_of.get(combo)
                if slot is None:
                    parent_slots = []
                    for drop in range(mine.order if mine.order > 1 else 0):
                        attrs = mine.attrs[:drop] + mine.attrs[drop + 1 :]
                        parent = self.ledgers[self.ledger_index[attrs]]
                        parent_combo = combo[:drop] + combo[drop + 1 :]
                        parent_slots.append(parent.slot_index()[parent_combo])
                    slot = mine.add_slots([combo], [parent_slots])
                    mine.state = _grow_time(mine.state, n_times)
                mine.counts[slot] += theirs.counts[other_slot]
                mine.state[:, slot, position_map] = aggregate.merge(
                    mine.state[:, slot, position_map],
                    theirs.state[:, other_slot, :other_n],
                )
        self._recompute_redundancy()
