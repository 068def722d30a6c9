"""Finer→coarser rollup derivation over the delta ledger.

The reason the lattice never re-ingests: an appendable cube already
retains, per explain-by attribute subset, the pre-finalize aggregate
states its build scattered (:mod:`repro.cube.delta`).  A coarser rollup —
fewer dimensions, or a component-subset aggregate like SUM out of a VAR
cube — needs exactly a subset of those ledgers:

* every attribute subset of the coarser ``dims`` is also a subset of the
  finer ``dims``, enumerated in the same order (sorted attributes,
  ascending conjunction order), so the finer ledger already holds its
  groups, counts, parent maps and states;
* all subtractable aggregates here share additive state components
  (``count`` / ``sum`` / ``sumsq``), and :meth:`scatter_into` applies each
  component's ``np.add.at`` pass independently — so projecting the VAR
  state's ``sum`` row yields byte-for-byte the array a scratch SUM build
  over the same rows would have produced.

:func:`derive_rollup` therefore copies the needed ledgers, projects the
state components, and re-finalizes — **bit-identical** to building the
coarser cube from the relation, at the cost of an O(groups × times) copy
instead of an O(rows) scan.  The property suite in
``tests/test_properties.py`` pins that equivalence across
SUM/COUNT/AVG/VAR.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.cube.datacube import ExplanationCube
from repro.cube.delta import CubeAppendState, SubsetLedger
from repro.exceptions import ExplanationError, QueryError
from repro.lattice.spec import RollupSpec
from repro.relation.aggregates import get_aggregate

#: State-component names per subtractable aggregate, in the exact row
#: order :meth:`_AdditiveAggregate._components` emits them.  A target
#: aggregate is derivable from a source aggregate iff its component names
#: are a subset of the source's — the projection indices come from here.
AGGREGATE_COMPONENTS: dict[str, tuple[str, ...]] = {
    "sum": ("sum",),
    "count": ("count",),
    "avg": ("count", "sum"),
    "var": ("count", "sum", "sumsq"),
}


def aggregate_components(name: str) -> tuple[str, ...]:
    """The state-component names of a registry aggregate (or ``()``)."""
    return AGGREGATE_COMPONENTS.get(name, ())


def covering_aggregate(names: "set[str] | Sequence[str]") -> str:
    """The cheapest single aggregate whose state covers all of ``names``.

    ``{"sum", "count"}`` → ``avg`` (its state holds both components);
    anything involving ``sumsq`` → ``var``.  Raises
    :class:`~repro.exceptions.QueryError` for an unknown or uncoverable
    aggregate name.
    """
    needed: set[str] = set()
    for name in names:
        components = aggregate_components(name)
        if not components:
            raise QueryError(
                f"aggregate {name!r} has no decomposable state components; "
                f"lattice rollups support {sorted(AGGREGATE_COMPONENTS)}"
            )
        needed.update(components)
    for candidate in ("sum", "count", "avg", "var"):
        if needed <= set(AGGREGATE_COMPONENTS[candidate]):
            return candidate
    raise QueryError(f"no registry aggregate covers components {sorted(needed)}")


def can_derive(source: RollupSpec, target: RollupSpec) -> bool:
    """Whether ``target`` is derivable from a cube built for ``source``.

    Requires the same measure and deduplication mode, target dims a
    subset of source dims, target aggregate components a subset of the
    source's, and a target conjunction depth the source ledger actually
    holds (``effective_order``).
    """
    source_components = aggregate_components(source.aggregate)
    target_components = aggregate_components(target.aggregate)
    if not source_components or not target_components:
        return False
    return (
        source.measure == target.measure
        and source.deduplicate == target.deduplicate
        and set(target.dims) <= set(source.dims)
        and set(target_components) <= set(source_components)
        and target.effective_order <= source.effective_order
    )


def spec_of_cube(cube: ExplanationCube) -> RollupSpec:
    """The :class:`RollupSpec` a built cube answers."""
    state = cube.append_state
    max_order = state.max_order if state is not None else len(cube.explain_by)
    deduplicate = state.deduplicate if state is not None else True
    return RollupSpec(
        dims=cube.explain_by,
        measure=cube.measure,
        aggregate=cube.aggregate.name,
        max_order=max_order,
        deduplicate=deduplicate,
    )


def derive_rollup(cube: ExplanationCube, target: RollupSpec) -> ExplanationCube:
    """A coarser rollup cube re-aggregated from a finer cube's ledger.

    The result is byte-identical to building ``target`` from the same
    relation (same candidate order, same float bits, same supports) and
    is itself appendable — derived rollups keep absorbing streamed deltas
    and can be cached like any built cube.
    """
    state = cube.append_state
    if state is None:
        raise ExplanationError(
            "rollup derivation needs the cube's delta ledger; build with "
            "appendable=True or load a ledger-bearing cache entry"
        )
    source = spec_of_cube(cube)
    if not can_derive(source, target):
        raise QueryError(
            f"rollup {target.describe()} is not derivable from "
            f"{source.describe()} (measure {source.measure!r}, "
            f"max_order {source.max_order}, deduplicate {source.deduplicate})"
        )
    source_components = aggregate_components(source.aggregate)
    component_rows = [
        source_components.index(name)
        for name in aggregate_components(target.aggregate)
    ]

    ledgers: list[SubsetLedger] = []
    for order in range(1, target.effective_order + 1):
        for subset in itertools.combinations(target.dims, order):
            src = state.ledgers[state.ledger_index[subset]]
            # Fancy-indexing the component axis copies: the derived ledger
            # owns its state and later appends to either cube stay
            # independent.
            ledger = SubsetLedger(
                attrs=subset,
                state=src.state[component_rows],
                counts=src.counts.copy(),
                values=[list(column) for column in src.values],
                parents=[p.copy() for p in src.parents],
                redundant=src.redundant.copy(),
            )
            ledger.conjunctions = list(src.conjunctions)
            ledger.sorted_order = src.sorted_order.copy()
            ledgers.append(ledger)

    derived = CubeAppendState(
        schema=state.schema,
        measure=state.measure,
        explain_by=target.dims,
        time_attr=state.time_attr,
        max_order=target.max_order,
        deduplicate=target.deduplicate,
        aggregate=get_aggregate(target.aggregate),
        labels=state.labels,
        overall=state.overall[component_rows],
        ledgers=ledgers,
    )
    # Copied flags are already consistent (redundancy depends only on the
    # copied counts/parent maps), but re-deriving keeps the invariant in
    # one place — the same replay a cache load performs.
    derived._recompute_redundancy()
    return ExplanationCube.from_append_state(derived)
