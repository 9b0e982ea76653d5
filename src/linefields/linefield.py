"""Vertex-edge matchings on a surface complex and their critical cells.

A matching pairs some vertices with incident edges, using each vertex and
each edge at most once.  Unmatched vertices are critical; a face is critical
unless exactly two of its boundary occurrences use unmatched edges; edges
are never critical.  Cell indices are half-integers, so they are kept
doubled throughout and the doubled total always equals twice the Euler
characteristic.

LineField and VectorField share one field protocol: problems(),
doubled_critical(), closed_path(), graph(), corridors(), paths(a, b) and
count_paths(a, b).  The first five, and the matching's lookups, are
implemented once on their shared base, dynamics._Field; a field kind
defines the last two, LineField.paths here, and supplies `_scan`, one
pass over its sorted matching that yields the matching's violations, its
step table and the roots of the closed-path search.  The methods are the
operations' one public spelling, and the CLI and the formats module reach
the algorithms only through them.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .dynamics import LPath, _all_corridors, _Field, _nth_walk, _require_acyclic
from .errors import OperationError


class LineField(_Field):
    """A complex plus a set of (vertex, edge) pairs: upper_of gives a
    matched vertex's edge, lower_of an edge's vertex.

    Construction does not check the pairing conditions; see
    validate_line_field.  Operations that walk it refuse an invalid one.
    """

    def __post_init__(self):
        object.__setattr__(self, "matching", frozenset((v, e) for v, e in self.matching))

    # ---- field protocol, the part a line field does its own way ----

    def paths(self, source: str, target: str) -> list[LPath]:
        """All L-paths from source to target; at most one exists, the
        trivial path counting when source == target.  A line field never
        branches, so it is the one walk from `source`, cut at `target`.
        The arguments are checked before the door, as every walking
        operation checks them."""
        for v in (source, target):
            if v not in self.complex.vertices:
                raise OperationError(f"{v} is not a vertex of the complex")
        _require_acyclic(self)
        path = _nth_walk(self._steps, {}, source, 0, LPath)
        if target not in path.vertices:
            return []
        k = path.vertices.index(target)
        return [LPath(path.vertices[: k + 1], path.edges[:k])]

    def count_paths(self, source: str, target: str) -> int:
        return len(self.paths(source, target))

    # ---- hooks of graph(), the field door and the JSON report ----

    _path = LPath
    _path_keys = ("vertices", "edges")  # the JSON report's path keys
    _kind = "line field"
    _cyclic_text = "line field has a closed path through "

    def _exits(self, cell: str) -> list[tuple[int, str]]:
        return [(i, self.complex.corner_vertex(cell, i)) for i in self._unmatched.get(cell, ())]

    @cached_property
    def _scan(self) -> tuple[list[str], dict, dict]:
        """One pass over the sorted matching: its violations (see
        validate_line_field); the L-step relation of its valid pairs, vertex
        -> ((edge, next),), in which a matched vertex steps across its edge
        to the other endpoint and a loop steps to itself, and a vertex in
        several pairs steps by the last in sorted order; and the search
        roots, the steps' keys, which the pass adds in sorted order."""
        vertices, edges = self.complex.vertices, self.complex.edges
        problems, steps = [], {}
        for v, e in self._pairs:
            if v not in vertices:
                problems.append(f"pair ({v}, {e}) references unknown vertex {v}")
            elif e not in edges:
                problems.append(f"pair ({v}, {e}) references unknown edge {e}")
            else:
                tail, head = edges[e]
                if v == tail:
                    steps[v] = ((e, head),)
                elif v == head:
                    steps[v] = ((e, tail),)
                else:
                    problems.append(f"pair ({v}, {e}): {v} is not an endpoint of {e}")
        n = len(self.matching)
        if len(self._upper_of) < n or len(self._lower_of) < n:
            for kind, cells in zip(("vertex", "edge"), zip(*self.matching)):
                for c, m in sorted(Counter(cells).items()):
                    if m > 1:
                        problems.append(f"{kind} {c} appears in {m} pairs")
        return problems, steps, steps

    @cached_property
    def _unmatched(self) -> dict[str, tuple[int, ...]]:
        """Each face's walk positions holding an unmatched edge."""
        matched = self._lower_of
        return {
            f: tuple([i for i, (_s, e) in enumerate(walk) if e not in matched])
            for f, walk in self.complex.faces.items()
        }

    @cached_property
    def _critical(self) -> dict[str, int]:
        return critical_cells(self)

    def _witness(self, cells, edges) -> LPath:
        """The closed L-path, rotated to start at its least vertex."""
        ring = cells[:-1]
        m = ring.index(min(ring))
        return LPath(ring[m:] + ring[: m + 1], edges[m:] + edges[:m])

    _corridors = cached_property(_all_corridors)

    # Each end occurrence of a traced corridor: the corridor leaving it.
    _corridor_table = cached_property(lambda self: {})
    # Each face merged from: its corridors, as a list per end face.
    _ends = cached_property(lambda self: {})


def validate_line_field(L: LineField) -> list[str]:
    """Violations of the matching conditions; empty when L is a line field.

    Every pair must join a vertex to an edge it is an endpoint of, and no
    vertex or edge may be used by two pairs.  The field's scan finds them.
    """
    return list(L._pair_problems)


def critical_cells(L: LineField) -> dict[str, int]:
    """Map from critical cell to its doubled index.

    Unmatched vertices score +2.  A face with c unmatched boundary
    occurrences scores 2 - c, recorded only when c != 2.  Edges never
    appear.  Only the critical cells are sorted, vertices before faces.
    """
    matched, unmatched = L._upper_of, L._unmatched
    out = {v: 2 for v in sorted(v for v in L.complex.vertices if v not in matched)}
    for f in sorted(f for f, at in unmatched.items() if len(at) != 2):
        out[f] = 2 - len(unmatched[f])
    return out
