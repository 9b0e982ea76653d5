"""Vertex-edge matchings on a surface complex and their critical cells.

A matching pairs some vertices with incident edges, using each vertex and
each edge at most once.  Unmatched vertices are critical; a face is critical
unless exactly two of its boundary occurrences use unmatched edges; edges
are never critical.  Cell indices are half-integers, so they are kept
doubled throughout and the doubled total always equals twice the Euler
characteristic.

LineField and VectorField share one field protocol: problems(),
doubled_critical(), closed_path(), graph(), corridors(), paths(a, b) and
count_paths(a, b).  The first four, and the matching's lookup maps, are
implemented once on their shared base, dynamics._Field.  The CLI and the
formats module reach the algorithms only through these methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dynamics import LPath, _all_corridors, _Field, _find_cycle, l_paths


@dataclass(frozen=True)
class LineField(_Field):
    """A complex plus a set of (vertex, edge) pairs: `_upper_of` maps a
    matched vertex to its edge, `_lower_of` an edge to its vertex.

    Construction does not check the pairing conditions; see
    validate_line_field.  Operations elsewhere assume a clean report.
    """

    def __post_init__(self):
        object.__setattr__(self, "matching", frozenset((v, e) for v, e in self.matching))

    def matched_vertices(self) -> frozenset[str]:
        return frozenset(self._upper_of)

    def matched_edges(self) -> frozenset[str]:
        return frozenset(self._lower_of)

    def edge_matched_to(self, vertex: str) -> str | None:
        return self._upper_of.get(vertex)

    def vertex_matched_to(self, edge: str) -> str | None:
        return self._lower_of.get(edge)

    # ---- field protocol, the part a line field does its own way ----

    paths = l_paths

    def corridors(self):
        """(corridors, closed corridors), traced once per field."""
        return self._corridors

    def count_paths(self, source: str, target: str) -> int:
        return len(l_paths(self, source, target))

    # ---- hooks of topological_graph, _require_acyclic and the JSON report ----

    _path = LPath
    _path_keys = ("vertices", "edges")  # the keys of LPath.json
    _cyclic_text = "line field has a closed path through "

    def _exits(self, cell: str) -> list[tuple[int, str]]:
        return [(i, self.complex.corner_vertex(cell, i)) for i in self._unmatched.get(cell, ())]

    @cached_property
    def _pair_problems(self) -> list[str]:
        return validate_line_field(self)

    @cached_property
    def _steps(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """The L-step relation, vertex -> ((edge, next),): a matched vertex
        steps across its edge to the other endpoint; a loop steps to itself."""
        steps = {}
        for v, e in self.matching:
            tail, head = self.complex.edges[e]
            steps[v] = ((e, head if v == tail else tail),)
        return steps

    @cached_property
    def _unmatched(self) -> dict[str, tuple[int, ...]]:
        """Each face's walk positions holding an unmatched edge."""
        matched = self._lower_of
        return {
            f: tuple(i for i, (_s, e) in enumerate(walk) if e not in matched)
            for f, walk in self.complex.faces.items()
        }

    @cached_property
    def _critical(self) -> dict[str, int]:
        return critical_cells(self)

    @cached_property
    def _closed(self) -> LPath | None:
        cycle = _find_cycle(sorted(self._steps), self._steps)
        if cycle is None:
            return None
        ring, edges = cycle[0][:-1], cycle[1]
        m = ring.index(min(ring))
        return LPath(ring[m:] + ring[: m + 1], edges[m:] + edges[:m])

    @cached_property
    def _corridors(self):
        return _all_corridors(self)


def validate_line_field(L: LineField) -> list[str]:
    """Violations of the matching conditions; empty when L is a line field.

    Every pair must join a vertex to an edge it is an endpoint of, and no
    vertex or edge may be used by two pairs.
    """
    S = L.complex
    problems = []
    for v, e in sorted(L.matching):
        if v not in S.vertices:
            problems.append(f"pair ({v}, {e}) references unknown vertex {v}")
        elif e not in S.edges:
            problems.append(f"pair ({v}, {e}) references unknown edge {e}")
        elif v not in S.edges[e]:
            problems.append(f"pair ({v}, {e}): {v} is not an endpoint of {e}")
    used_v: dict[str, int] = {}
    used_e: dict[str, int] = {}
    for v, e in L.matching:
        used_v[v] = used_v.get(v, 0) + 1
        used_e[e] = used_e.get(e, 0) + 1
    for v in sorted(used_v):
        if used_v[v] > 1:
            problems.append(f"vertex {v} appears in {used_v[v]} pairs")
    for e in sorted(used_e):
        if used_e[e] > 1:
            problems.append(f"edge {e} appears in {used_e[e]} pairs")
    return problems


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
