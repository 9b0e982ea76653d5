"""Discrete vector fields: matchings of cell pairs one dimension apart.

A pair joins a cell to one of its cofaces; unmatched cells are critical
with index (-1)^dim.  X-paths slide from a matched cell into another
boundary cell of its partner, never stepping back to the same cell, and
record which boundary occurrence each step uses so parallel paths stay
distinct.  Cancellation reverses the unique path joining two critical
cells.

VectorField has the field protocol of LineField, and shares its body,
dynamics._Field: the complex, the matching's lookup maps `_upper_of` and
`_lower_of`, and problems(), doubled_critical(), closed_path() and
graph().  The CLI and the formats module use only those methods.
"""

from __future__ import annotations

from functools import cached_property, partial

from .dynamics import (
    _Field,
    _PathView,
    _count_walks,
    _find_cycle,
    _nth_walk,
    _require_acyclic,
    topological_graph,
)
from .errors import CancellationError, OperationError


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


class VectorField(_Field):
    """A complex plus pairs (lower, upper); construction reorders each pair
    by dimension but checks nothing else, see validate_vector_field."""

    def __post_init__(self):
        # Cell ids are unique across kinds, so membership gives dimensions.
        S = self.complex
        pairs = []
        for a, b in self.matching:
            if a in S.edges and b in S.vertices or a in S.faces and b in S.edges:
                a, b = b, a
            pairs.append((a, b))
        object.__setattr__(self, "matching", frozenset(pairs))

    def matched_cells(self) -> frozenset[str]:
        return frozenset(self._upper_of.keys() | self._lower_of.keys())

    def upper_of(self, lower: str) -> str | None:
        return self._upper_of.get(lower)

    def lower_of(self, upper: str) -> str | None:
        return self._lower_of.get(upper)

    # ---- field protocol, the part a vector field does its own way ----

    def corridors(self) -> tuple[tuple, tuple]:
        """Cell matchings have no corridors."""
        return (), ()

    def paths(self, source: str, target: str):
        return x_paths(self, source, target)

    def count_paths(self, source: str, target: str) -> int:
        return count_x_paths(self, source, target)

    # ---- hooks of topological_graph, _require_acyclic and the JSON report ----

    _cyclic_text = "vector field has a closed X-path through "
    _path_keys = ("cells", "witnesses")  # the keys of XPath.json

    def _exits(self, cell: str) -> list[tuple[int, str]]:
        """(occurrence key, boundary cell) pairs of an edge or face, in
        order; none for a vertex."""
        S = self.complex
        if cell in S.edges:
            tail, head = S.edges[cell]
            return [(0, tail), (1, head)]
        return [(i, e) for i, (_s, e) in enumerate(S.faces.get(cell, ()))]

    @cached_property
    def _path(self):
        """`(cells, witnesses) -> XPath`.  It holds the complex, not the
        field, so a kept graph's separatrices do not refer back to it."""
        dim_of = self.complex.dim_of
        return lambda cells, witnesses: XPath(dim_of(cells[0]), cells, witnesses)

    @cached_property
    def _pair_problems(self) -> list[str]:
        return validate_vector_field(self)

    @cached_property
    def _steps(self) -> dict[str, tuple[tuple[tuple[str, int], str], ...]]:
        """The X-path step relation: a cell matched upward steps to every
        other cell on its partner's boundary, as ((witness, key), next)."""
        return {
            lo: tuple(((up, key), c) for key, c in self._exits(up) if c != lo)
            for lo, up in self.matching
        }

    @cached_property
    def _critical(self) -> dict[str, int]:
        return {c: 2 * i for c, i in critical_cells_dvf(self).items()}

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


def _x_query(V: VectorField, source: str, target: str) -> tuple[int, list[str], dict]:
    """An X-path query's dimension, start cells (those on the boundary of
    `source`, each once) and _count_walks table to `target`; refuses a
    cell that is unknown or matched, a dimension mismatch, a cyclic field."""
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
    starts = list(dict.fromkeys(c for _key, c in V._exits(source)))
    return d_target, starts, _count_walks(V._steps, starts, target)


def x_paths(V: VectorField, source: str, target: str):
    """All X-paths starting at a cell incident to the critical cell
    `source` and ending at the critical cell `target`, lazily, in
    deterministic order: each start cell's walks by rank.  Trivial
    one-cell paths count.  A bad query is refused at the call."""
    p, starts, ways = _x_query(V, source, target)
    make = partial(XPath, p)
    return (
        _nth_walk(V._steps, ways, start, k, make) for start in starts for k in range(ways[start])
    )


def count_x_paths(V: VectorField, source: str, target: str) -> int:
    """Number of X-paths x_paths would yield, without enumerating them."""
    _p, starts, ways = _x_query(V, source, target)
    return sum(ways[c] for c in starts)


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
    p, starts, ways = _x_query(V, upper, lower)
    total = sum(ways[cell] for _key, cell in V._exits(upper))
    if total == 0:
        raise CancellationError(f"no X-path from {upper} to {lower}")
    if total > 1:
        raise CancellationError(
            f"cancellation needs a unique X-path from {upper} to {lower}; found {total}"
        )
    start = next(c for c in starts if ways[c])
    path = _nth_walk(V._steps, ways, start, 0, partial(XPath, p))
    removed = {(path.cells[i], path.witnesses[i][0]) for i in range(len(path.witnesses))}
    added = {(path.cells[i + 1], path.witnesses[i][0]) for i in range(len(path.witnesses))}
    matching = (V.matching - removed) | added | {(path.cells[0], upper)}
    return VectorField(V.complex, matching)


def dualize(V: VectorField) -> VectorField:
    """The same pairs on the dual complex; lower and upper roles swap."""
    return VectorField(V.complex.dual(), V.matching)
