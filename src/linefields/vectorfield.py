"""Discrete vector fields: matchings of cell pairs one dimension apart.

A pair joins a cell to one of its cofaces; unmatched cells are critical
with index (-1)^dim.  X-paths slide from a matched cell into another
boundary cell of its partner, never stepping back to the same cell, and
record which boundary occurrence each step uses so parallel paths stay
distinct.  Cancellation reverses the unique path joining two critical
cells.

VectorField has the field protocol of LineField (see linefield.py); the
CLI and the formats module use only those methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dynamics import (
    _PathView,
    _count_walks,
    _find_cycle,
    _maximal_walks,
    _require_acyclic,
    topological_graph,
)
from .errors import CancellationError, OperationError
from .surface import SurfaceComplex


@dataclass(frozen=True)
class XPath(_PathView):
    """Cells s1..sk of one dimension with witnesses (t1, key1)..; {si, ti}
    is matched and s(i+1) occurs on the boundary of ti at the keyed slot
    (endpoint slot for edges, walk position for faces)."""

    dimension: int
    cells: tuple[str, ...]
    witnesses: tuple[tuple[str, int], ...]

    @property
    def steps(self) -> tuple[str, ...]:
        return tuple(t for t, _key in self.witnesses)

    def json(self) -> dict:
        return {"cells": list(self.cells), "witnesses": [list(w) for w in self.witnesses]}


@dataclass(frozen=True)
class VectorField:
    """A complex plus pairs (lower, upper); construction reorders each pair
    by dimension but checks nothing else, see validate_vector_field."""

    complex: SurfaceComplex
    matching: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        pairs = []
        for a, b in self.matching:
            if (
                self.complex.has_cell(a)
                and self.complex.has_cell(b)
                and self.complex.dim_of(a) == self.complex.dim_of(b) + 1
            ):
                a, b = b, a
            pairs.append((a, b))
        object.__setattr__(self, "matching", frozenset(pairs))

    def matched_cells(self) -> frozenset[str]:
        return frozenset(self._upper_of.keys() | self._lower_of.keys())

    def upper_of(self, lower: str) -> str | None:
        return self._upper_of.get(lower)

    def lower_of(self, upper: str) -> str | None:
        return self._lower_of.get(upper)

    # ---- field protocol (see linefield.py) ----

    def problems(self) -> list[str]:
        return self.complex.validate() + validate_vector_field(self)

    def doubled_critical(self) -> dict[str, int]:
        """Critical cells with twice their index, as line fields keep it."""
        return {c: 2 * i for c, i in critical_cells_dvf(self).items()}

    def closed_path(self) -> XPath | None:
        return closed_x_path(self)

    graph = topological_graph

    def corridors(self) -> tuple[tuple, tuple]:
        """Cell matchings have no corridors."""
        return (), ()

    def paths(self, source: str, target: str):
        return x_paths(self, source, target)

    def count_paths(self, source: str, target: str) -> int:
        return count_x_paths(self, source, target)

    # ---- hooks of topological_graph and _require_acyclic ----

    _cyclic_text = "vector field has a closed X-path through "

    def _exits(self, cell: str) -> list[tuple[int, str]]:
        """(occurrence key, boundary cell) pairs of an edge or face, in
        order; none for a vertex."""
        S = self.complex
        if cell in S.edges:
            tail, head = S.edges[cell]
            return [(0, tail), (1, head)]
        return [(i, e) for i, (_s, e) in enumerate(S.faces.get(cell, ()))]

    def _path(self, cells, witnesses) -> XPath:
        return XPath(self.complex.dim_of(cells[0]), cells, witnesses)

    # The matching never changes after construction, so each lookup table
    # is built once, on first use.

    @cached_property
    def _upper_of(self) -> dict[str, str]:
        return {lo: up for lo, up in self.matching}

    @cached_property
    def _lower_of(self) -> dict[str, str]:
        return {up: lo for lo, up in self.matching}

    @cached_property
    def _steps(self) -> dict[str, tuple[tuple[tuple[str, int], str], ...]]:
        """The X-path step relation: a cell matched upward steps to every
        other cell on its partner's boundary, as ((witness, key), next)."""
        return {
            lo: tuple(((up, key), c) for key, c in self._exits(up) if c != lo)
            for lo, up in self.matching
        }

    @cached_property
    def _closed(self) -> XPath | None:
        # Steps stay within one dimension, so one search from the matched
        # vertices, then the matched edges, finds a cycle of either.
        dim_of = self.complex.dim_of
        cycle = _find_cycle(sorted(self._steps, key=lambda c: (dim_of(c), c)), self._steps)
        return None if cycle is None else self._path(*cycle)


def validate_vector_field(V: VectorField) -> list[str]:
    """Violations of the matching conditions; empty when V is a discrete
    vector field: pairs incident and one dimension apart, no cell reused."""
    S = V.complex
    problems = []
    for lo, up in sorted(V.matching):
        if not S.has_cell(lo):
            problems.append(f"pair ({lo}, {up}) references unknown cell {lo}")
            continue
        if not S.has_cell(up):
            problems.append(f"pair ({lo}, {up}) references unknown cell {up}")
            continue
        dlo, dup = S.dim_of(lo), S.dim_of(up)
        if dup - dlo != 1:
            problems.append(f"pair ({lo}, {up}): dimensions differ by {dup - dlo}")
            continue
        if dlo == 0 and lo not in S.edges[up]:
            problems.append(f"pair ({lo}, {up}): {lo} is not an endpoint of {up}")
        if dlo == 1 and all(e != lo for _s, e in S.faces[up]):
            problems.append(f"pair ({lo}, {up}): {lo} is not on the boundary walk of {up}")
    used: dict[str, int] = {}
    for pair in V.matching:
        for c in pair:
            used[c] = used.get(c, 0) + 1
    for c in sorted(used):
        if used[c] > 1:
            problems.append(f"cell {c} appears in {used[c]} pairs")
    return problems


def critical_cells_dvf(V: VectorField) -> dict[str, int]:
    """Unmatched cells mapped to their index (-1)^dim, by dimension, then
    id.  Only the critical cells are sorted."""
    S, upper, lower = V.complex, V._upper_of, V._lower_of
    out: dict[str, int] = {}
    for cells, index in ((S.vertices, 1), (S.edges, -1), (S.faces, 1)):
        for cell in sorted(c for c in cells if c not in upper and c not in lower):
            out[cell] = index
    return out


# ---- X-paths --------------------------------------------------------------


def closed_x_path(V: VectorField) -> XPath | None:
    """A closed X-path in either dimension, or None when the step relation
    is acyclic.  The field searches once and keeps the verdict."""
    return V._closed


def _start_cells(V: VectorField, cell: str) -> list[str]:
    return list(dict.fromkeys(c for _key, c in V._exits(cell)))


def _check_path_query(V: VectorField, source: str, target: str) -> int:
    S = V.complex
    for c in (source, target):
        if not S.has_cell(c):
            raise OperationError(f"{c} is not a cell of the complex")
    d_source, d_target = S.dim_of(source), S.dim_of(target)
    if d_source != d_target + 1:
        raise OperationError(
            f"dimension mismatch: {source} has dimension {d_source},"
            f" {target} has dimension {d_target}"
        )
    for c in (source, target):
        if c in V._upper_of or c in V._lower_of:
            raise OperationError(f"{c} is matched, not critical")
    _require_acyclic(V)
    return d_target


def _x_walks(V: VectorField, p: int, source: str, target: str):
    """x_paths without the query checks; the field must be acyclic."""
    for start in _start_cells(V, source):
        for cells, witnesses in _maximal_walks(start, V._steps):
            if cells[-1] == target:
                yield XPath(p, cells, witnesses)


def x_paths(V: VectorField, source: str, target: str):
    """All X-paths starting at a cell incident to the critical cell
    `source` and ending at the critical cell `target`, lazily, in
    deterministic order.  Trivial one-cell paths count."""
    return _x_walks(V, _check_path_query(V, source, target), source, target)


def count_x_paths(V: VectorField, source: str, target: str) -> int:
    """Number of X-paths x_paths would yield, without enumerating them."""
    _check_path_query(V, source, target)
    ways = _count_walks(V._steps, target)
    return sum(ways(c) for c in _start_cells(V, source))


# ---- topological graph and cancellation -----------------------------------


# Not exported: perfbench/jobs.py times vectorfield.topological_graph_dvf
# under this name.
topological_graph_dvf = topological_graph


def cancel_dvf(V: VectorField, upper: str, lower: str) -> VectorField:
    """Reverse the unique X-path witness joining two critical cells.

    Uniqueness counts (boundary occurrence, path) pairs, matching the
    multiplicity convention of the topological graph.  The reversed
    matching drops each {si, ti}, adds {s(i+1), ti}, and adds {s1, upper};
    the critical count drops by exactly two.
    """
    p = _check_path_query(V, upper, lower)
    ways = _count_walks(V._steps, lower)
    total = sum(ways(cell) for _key, cell in V._exits(upper))
    if total == 0:
        raise CancellationError(f"no X-path from {upper} to {lower}")
    if total > 1:
        raise CancellationError(
            f"cancellation needs a unique X-path from {upper} to {lower}; found {total}"
        )
    path = next(_x_walks(V, p, upper, lower))
    removed = {(path.cells[i], path.witnesses[i][0]) for i in range(len(path.witnesses))}
    added = {(path.cells[i + 1], path.witnesses[i][0]) for i in range(len(path.witnesses))}
    matching = (V.matching - removed) | added | {(path.cells[0], upper)}
    return VectorField(V.complex, matching)


def dualize(V: VectorField) -> VectorField:
    """The same pairs on the dual complex; lower and upper roles swap."""
    return VectorField(V.complex.dual(), V.matching)
