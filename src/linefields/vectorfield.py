"""Discrete vector fields: matchings of cell pairs one dimension apart.

A pair joins a cell to one of its cofaces; unmatched cells are critical
with index (-1)^dim.  X-paths slide from a matched cell into another
boundary cell of its partner, never stepping back to the same cell, and
record which boundary occurrence each step uses so parallel paths stay
distinct.  Cancellation reverses the unique path joining two critical
cells.

VectorField has the field protocol of LineField, and shares its body,
dynamics._Field: the complex, the matching's lookups upper_of, lower_of
and matched_cells, and problems(), doubled_critical(), closed_path(),
graph() and corridors().  It defines the X-path queries paths(a, b) and
count_paths(a, b), and supplies `_scan`, one pass over its sorted
matching that yields the matching's violations, its step table and the
roots of the closed-path search.  The methods are the operations' one
public spelling, and the CLI and the formats module use only them.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, partial

from .dynamics import _Field, _count_walks, _nth_walk, _require_acyclic
from .errors import CancellationError, OperationError, _Record


class XPath(_Record):
    """Cells s1..sk of one dimension with witnesses (t1, key1)..; {si, ti}
    is matched and s(i+1) occurs on the boundary of ti at the keyed slot
    (endpoint slot for edges, walk position for faces)."""

    dimension: int
    cells: tuple[str, ...]
    witnesses: tuple[tuple[str, int], ...]

    @property
    def steps(self) -> tuple[str, ...]:
        return tuple(t for t, _key in self.witnesses)


# ---- X-paths --------------------------------------------------------------


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

    # ---- field protocol, the part a vector field does its own way ----

    _corridors = ((), ())  # cell matchings have no corridors

    def paths(self, source: str, target: str):
        """All X-paths starting at a cell incident to the critical cell
        `source` and ending at the critical cell `target`, lazily, in
        deterministic order: each start cell's walks by rank.  Trivial
        one-cell paths count.  A bad query is refused at the call."""
        p, starts, ways = _x_query(self, source, target)
        make = partial(XPath, p)
        return (
            _nth_walk(self._steps, ways, start, k, make)
            for start in starts
            for k in range(ways[start])
        )

    def count_paths(self, source: str, target: str) -> int:
        """Number of X-paths paths() would yield, without enumerating them."""
        _p, starts, ways = _x_query(self, source, target)
        return sum(ways[c] for c in starts)

    # ---- hooks of graph(), the field door and the JSON report ----

    _kind = "vector field"
    _cyclic_text = "vector field has a closed X-path through "
    _path_keys = ("cells", "witnesses")  # the JSON report's path keys

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
    def _scan(self) -> tuple[list[str], dict, list[str]]:
        """One pass over the sorted matching: its violations (see
        validate_vector_field); the X-path step relation of its valid
        pairs, in which a cell matched upward steps to every other cell on
        its partner's boundary, as ((witness, key), next), in `_exits`
        order, and a cell lower in several pairs steps by the last in
        sorted order; and the search roots, the matched vertices and then
        the matched edges, in order.  Steps stay within one dimension, so
        one search from the roots finds a cycle of either."""
        S = self.complex
        vertices, edges, faces = S.vertices, S.edges, S.faces
        problems, steps, low_vertices, low_edges = [], {}, [], []
        for lo, up in self._pairs:
            if up in edges and lo in vertices:
                tail, head = edges[up]
                if lo == tail:
                    steps[lo] = () if head == lo else (((up, 1), head),)
                elif lo == head:
                    steps[lo] = (((up, 0), tail),)
                else:
                    problems.append(f"pair ({lo}, {up}): {lo} is not an endpoint of {up}")
                    continue
                low_vertices.append(lo)
            elif up in faces and lo in edges:
                walk = faces[up]
                out = tuple([((up, i), e) for i, (_s, e) in enumerate(walk) if e != lo])
                if len(out) == len(walk):
                    problems.append(f"pair ({lo}, {up}): {lo} is not on the boundary walk of {up}")
                    continue
                steps[lo] = out
                low_edges.append(lo)
            elif not S.has_cell(lo):
                problems.append(f"pair ({lo}, {up}) references unknown cell {lo}")
            elif not S.has_cell(up):
                problems.append(f"pair ({lo}, {up}) references unknown cell {up}")
            else:
                gap = S.dim_of(up) - S.dim_of(lo)
                problems.append(f"pair ({lo}, {up}): dimensions differ by {gap}")
        upper, lower, n = self._upper_of, self._lower_of, len(self.matching)
        if len(upper) < n or len(lower) < n or not upper.keys().isdisjoint(lower):
            for c, m in sorted(Counter(c for pair in self._pairs for c in pair).items()):
                if m > 1:
                    problems.append(f"cell {c} appears in {m} pairs")
        return problems, steps, low_vertices + low_edges

    @cached_property
    def _critical(self) -> dict[str, int]:
        return {c: 2 * i for c, i in critical_cells_dvf(self).items()}


def validate_vector_field(V: VectorField) -> list[str]:
    """Violations of the matching conditions; empty when V is a discrete
    vector field: pairs incident and one dimension apart, no cell reused.
    The field's scan finds them."""
    return list(V._pair_problems)


def critical_cells_dvf(V: VectorField) -> dict[str, int]:
    """Unmatched cells mapped to their index (-1)^dim, by dimension, then
    id.  Only the critical cells are sorted."""
    S, upper, lower = V.complex, V._upper_of, V._lower_of
    out: dict[str, int] = {}
    for cells, index in ((S.vertices, 1), (S.edges, -1), (S.faces, 1)):
        for cell in sorted(c for c in cells if c not in upper and c not in lower):
            out[cell] = index
    return out


# perfbench/jobs.py times vectorfield.closed_x_path, .count_x_paths and
# .topological_graph_dvf under these names.
closed_x_path = VectorField.closed_path
count_x_paths = VectorField.count_paths
topological_graph_dvf = VectorField.graph


# ---- cancellation ---------------------------------------------------------


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
