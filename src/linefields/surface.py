"""CW decompositions of compact surfaces given by faces-as-boundary-walks.

A complex is a set of vertices, a set of edges with a designated tail and
head, and a set of faces, each carrying a closed walk of signed edge
occurrences.  +e traverses tail to head, -e the other way.  Loops and
repeated edges are allowed, and nothing here assumes orientability: any
combination of occurrence signs is accepted as long as the walks chain.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import DegenerateOperationError, InvalidComplexError

# An occurrence is (sign, edge_id) with sign +1 or -1.
Occurrence = tuple[int, str]

# A link slot is (face, corner position, "in" or "out").
Slot = tuple[str, int, str]


def occ_text(occ: Occurrence) -> str:
    sign, edge = occ
    return ("+" if sign > 0 else "-") + edge


def reversed_walk(walk: tuple[Occurrence, ...]) -> tuple[Occurrence, ...]:
    return tuple((-sign, e) for sign, e in reversed(walk))


def _canonical_rotation(walk: tuple[Occurrence, ...]) -> tuple[Occurrence, ...]:
    # Rotate to start at the lexicographically least rotation of the
    # signed-occurrence texts so corner positions are reproducible.
    k = _least_rotation([occ_text(o) for o in walk])
    return walk[k:] + walk[:k]


def _least_rotation(keys: list[str]) -> int:
    """Start of a lexicographically least rotation of `keys`, in O(len(keys)).

    K. S. Booth, Lexicographically least circular substrings, IPL 10 (1980):
    a failure function over the doubled sequence, as in Knuth-Morris-Pratt,
    moves the candidate start k forward whenever a smaller key shows up.
    """
    doubled = keys + keys
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        key = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and key != doubled[k + i + 1]:
            if key < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if key != doubled[k + i + 1]:
            if key < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def fresh_id(base: str, taken) -> str:
    """A cell identifier not already in `taken`, derived from `base`."""
    if base not in taken:
        return base
    n = 2
    while f"{base}_{n}" in taken:
        n += 1
    return f"{base}_{n}"


@dataclass(frozen=True)
class SurfaceComplex:
    """Immutable complex; walks are canonically rotated at construction."""

    vertices: frozenset[str]
    edges: dict[str, tuple[str, str]]
    faces: dict[str, tuple[Occurrence, ...]]
    name: str = field(default="surface", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        seen: set[str] = set()
        for cell in list(self.vertices) + list(self.edges) + list(self.faces):
            if cell in seen:
                raise InvalidComplexError(f"identifier {cell!r} used for more than one cell")
            seen.add(cell)
        edges = {}
        for e, (tail, head) in self.edges.items():
            if tail not in self.vertices or head not in self.vertices:
                raise InvalidComplexError(f"edge {e} references unknown vertex")
            edges[e] = (tail, head)
        faces = {}
        for f, walk in self.faces.items():
            w = []
            for occ in walk:
                sign, e = occ
                if e not in edges:
                    raise InvalidComplexError(f"face {f} references unknown edge {e}")
                if sign not in (1, -1):
                    raise InvalidComplexError(f"face {f} has occurrence with sign {sign}")
                w.append((sign, e))
            faces[f] = _canonical_rotation(tuple(w))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "faces", faces)

    # ---- basic accessors -------------------------------------------------

    def dim_of(self, cell: str) -> int:
        if cell in self.vertices:
            return 0
        if cell in self.edges:
            return 1
        if cell in self.faces:
            return 2
        raise KeyError(cell)

    def has_cell(self, cell: str) -> bool:
        return cell in self.vertices or cell in self.edges or cell in self.faces

    def cells(self):
        for v in sorted(self.vertices):
            yield v, 0
        for e in sorted(self.edges):
            yield e, 1
        for f in sorted(self.faces):
            yield f, 2

    def is_loop(self, edge: str) -> bool:
        tail, head = self.edges[edge]
        return tail == head

    def occ_source(self, occ: Occurrence) -> str:
        tail, head = self.edges[occ[1]]
        return tail if occ[0] > 0 else head

    def occ_target(self, occ: Occurrence) -> str:
        tail, head = self.edges[occ[1]]
        return head if occ[0] > 0 else tail

    def corner_vertex(self, face: str, position: int) -> str:
        walk = self.faces[face]
        return self.occ_source(walk[position % len(walk)])

    @cached_property
    def occurrence_index(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """Each edge's (face, position) slots in sorted face order.

        Built in one pass over the walks on first use and kept with the
        complex, which never changes after construction.
        """
        slots: dict[str, list[tuple[str, int]]] = {e: [] for e in self.edges}
        for f in sorted(self.faces):
            for i, (_s, e) in enumerate(self.faces[f]):
                slots[e].append((f, i))
        return {e: tuple(occs) for e, occs in slots.items()}

    @cached_property
    def opposite(self) -> dict[tuple[str, int], tuple[str, int]]:
        """Each (face, position) slot mapped to the other slot of its edge.

        The slot pairing of a combinatorial map, read once from
        occurrence_index; an edge that does not occur exactly twice has no
        entry.
        """
        pairs = {}
        for occs in self.occurrence_index.values():
            if len(occs) == 2:
                a, b = occs
                pairs[a], pairs[b] = b, a
        return pairs

    # The package reads occurrence_index; this list copy stays because
    # perfbench/jobs.py times surface.edge_occurrences by name.
    def edge_occurrences(self, edge: str) -> list[tuple[str, int]]:
        """(face, position) slots where `edge` occurs, in sorted face order."""
        return list(self.occurrence_index.get(edge, ()))

    # ---- invariants ------------------------------------------------------

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def validate(self) -> list[str]:
        """Violations of the closed-surface conditions; empty when clean.

        Checks that every edge occurs exactly twice among the boundary
        walks, that each walk chains head-to-tail, and that the incidence
        structure is connected.
        """
        problems = []
        counts = Counter(e for walk in self.faces.values() for _s, e in walk)
        for e in sorted(self.edges):
            c = counts.get(e, 0)
            if c != 2:
                problems.append(f"edge {e} occurs {c} time(s) in boundary walks, expected 2")
        for f in sorted(self.faces):
            walk = self.faces[f]
            for i in range(len(walk)):
                here = self.occ_target(walk[i])
                there = self.occ_source(walk[(i + 1) % len(walk)])
                if here != there:
                    problems.append(
                        f"face {f} breaks between positions {i} and {(i + 1) % len(walk)}:"
                        f" {here} != {there}"
                    )
        n_components = self._incidence_components()
        if n_components > 1:
            problems.append(f"incidence structure is disconnected ({n_components} components)")
        return problems

    def _incidence_components(self) -> int:
        adjacency: dict[str, set[str]] = {cell: set() for cell, _d in self.cells()}
        for e, (tail, head) in self.edges.items():
            adjacency[e].add(tail)
            adjacency[e].add(head)
            adjacency[tail].add(e)
            adjacency[head].add(e)
        for f, walk in self.faces.items():
            for _s, e in walk:
                adjacency[f].add(e)
                adjacency[e].add(f)
        seen: set[str] = set()
        components = 0
        for start in adjacency:
            if start in seen:
                continue
            components += 1
            queue = deque([start])
            seen.add(start)
            while queue:
                cur = queue.popleft()
                for nxt in adjacency[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
        return components

    # ---- vertex links ----------------------------------------------------

    @cached_property
    def _link_cycles(self) -> dict[str, tuple[tuple[Slot, ...], ...]]:
        # An occurrence leaves the corner at its source through an "out"
        # slot and enters the next corner through an "in" slot; the two
        # occurrences of an edge put each of its ends in two slots.
        partner: dict[Slot, Slot] = {}
        starts: list[tuple[str, Slot]] = []
        for e in sorted(self.edges):
            occs = self.occurrence_index[e]
            if len(occs) != 2:
                raise InvalidComplexError(
                    f"vertex links need every edge twice: edge {e} occurs {len(occs)} time(s)"
                )
            by_end = []
            for f, p in occs:
                leave, enter = (f, p, "out"), (f, (p + 1) % len(self.faces[f]), "in")
                by_end.append((leave, enter) if self.faces[f][p][0] > 0 else (enter, leave))
            for vertex, (a, b) in zip(self.edges[e], zip(*by_end)):
                partner[a], partner[b] = b, a
                starts += [(vertex, min(a, b)), (vertex, max(a, b))]
        cycles: dict[str, list[tuple[Slot, ...]]] = {v: [] for v in self.vertices}
        seen: set[Slot] = set()
        for vertex, first in starts:
            if first in seen:
                continue
            cycle = []
            slot = first
            while True:
                f, i, side = slot
                arrive = (f, i, "out" if side == "in" else "in")
                slot = partner[arrive]
                seen.update((arrive, slot))
                cycle.append(slot)
                if slot == first:
                    break
            cycles[vertex].append(tuple(cycle))
        return {v: tuple(cs) for v, cs in cycles.items()}

    def vertex_link_cycles(self) -> dict[str, tuple[tuple[Slot, ...], ...]]:
        """The cyclic fan of edge ends and corners around each vertex.

        Each corner (face, position) has an "in" slot, holding the end of
        the edge entering it, and an "out" slot, holding the end of the
        edge leaving it.  A link step crosses a corner from one slot to
        the other, then crosses that edge end to its other slot: two
        fixed-point-free involutions applied in turn, as in a signed
        rotation system.  A genuine surface point has exactly one cycle.

        Returns, per vertex, its cycles; a cycle is the tuple of
        (face, position, side) slots it leaves corners through.  Cycles
        start at the least unused slot of the edge ends in sorted order.
        Built once per complex; raises InvalidComplexError unless every
        edge occurs exactly twice.
        """
        return self._link_cycles

    # ---- dual ------------------------------------------------------------

    def dual(self) -> "SurfaceComplex":
        """The dual complex: a vertex per face, an edge per edge, a face per
        vertex, all keeping their identifiers.

        Requires a complex that passes validate() with one link cycle at
        every vertex; a vertex pinching two umbrellas together has no dual
        in this encoding.
        """
        problems = self.validate()
        if problems:
            raise InvalidComplexError(f"cannot dualize: {problems[0]}")
        dual_edges = {e: (occs[0][0], occs[1][0]) for e, occs in self.occurrence_index.items()}
        dual_faces = {}
        links = self.vertex_link_cycles()
        for v in sorted(self.vertices):
            cycles = links[v]
            if len(cycles) != 1:
                raise InvalidComplexError(
                    f"cannot dualize: link of vertex {v} has {len(cycles)} cycles"
                )
            walk = []
            for f, i, side in cycles[0]:
                # The step crosses edge e from its other occurrence to
                # the occurrence at position p of face f.
                p = (i - 1) % len(self.faces[f]) if side == "in" else i
                e = self.faces[f][p][1]
                walk.append((1 if (f, p) == self.occurrence_index[e][1] else -1, e))
            dual_faces[v] = tuple(walk)
        return SurfaceComplex(
            vertices=frozenset(self.faces),
            edges=dual_edges,
            faces=dual_faces,
            name=self.name + "_dual",
        )


# ---- walk surgery --------------------------------------------------------
#
# _split_walk and _merged_walk hold the walk arithmetic of the two surgery
# moves on plain walks, so that a caller applying many moves can edit cell
# dicts in place and construct one complex at the end.


def _split_walk(
    walk: tuple[Occurrence, ...], p: int, q: int, diag_id: str
) -> tuple[tuple[Occurrence, ...], tuple[Occurrence, ...]]:
    """The two walks of a face split by a diagonal from corner p to corner q.

    The first takes positions p..q-1 followed by the diagonal traversed
    backwards; the second takes positions q..p-1 followed by the diagonal
    forwards.
    """
    n = len(walk)
    part_a = tuple(walk[(p + k) % n] for k in range((q - p) % n)) + ((-1, diag_id),)
    part_b = tuple(walk[(q + k) % n] for k in range((p - q) % n)) + ((1, diag_id),)
    return part_a, part_b


def _merged_walk(
    wa: tuple[Occurrence, ...],
    p1: int,
    wb: tuple[Occurrence, ...],
    p2: int,
) -> tuple[Occurrence, ...]:
    """The walk left when the edge at wa[p1] and wb[p2] is deleted.

    The rest of wb replaces the occurrence in wa, reversed when both
    occurrences carry the same sign, so the merged walk runs through the
    edge's endpoints the way wa did.  For a loop this keeps the vertex
    link one cycle.  Raises DegenerateOperationError when nothing is left.
    """
    rest_b = wb[p2 + 1 :] + wb[:p2]
    middle = reversed_walk(rest_b) if wa[p1][0] == wb[p2][0] else rest_b
    merged = wa[:p1] + middle + wa[p1 + 1 :]
    if not merged:
        raise DegenerateOperationError(
            f"deleting {wa[p1][1]} would leave a face with an empty boundary"
        )
    return merged


def split_face(
    S: SurfaceComplex,
    face: str,
    p: int,
    q: int,
    diag_id: str,
    face_a_id: str,
    face_b_id: str,
) -> SurfaceComplex:
    """Split `face` by a new edge between its corners at positions p and q.

    The diagonal runs from the corner-p vertex (tail) to the corner-q vertex
    (head).  Face A takes positions p..q-1 followed by the diagonal traversed
    backwards; face B takes positions q..p-1 followed by the diagonal forwards.
    """
    walk = S.faces[face]
    if len(walk) < 2 or p == q:
        raise DegenerateOperationError(f"cannot split face {face} at positions {p}, {q}")
    edges = dict(S.edges)
    edges[diag_id] = (S.corner_vertex(face, p), S.corner_vertex(face, q))
    faces = {g: w for g, w in S.faces.items() if g != face}
    faces[face_a_id], faces[face_b_id] = _split_walk(walk, p, q, diag_id)
    return replace(S, edges=edges, faces=faces)


def delete_edge_merge_faces(S: SurfaceComplex, edge: str, merged_id: str) -> SurfaceComplex:
    """Delete `edge` and merge the two faces holding its occurrences.

    Raises DegenerateOperationError when both occurrences lie on one face
    (deleting would split it or change the Euler characteristic) or when the
    merged boundary walk would be empty.
    """
    occs = S.occurrence_index.get(edge, ())
    if len(occs) != 2:
        raise DegenerateOperationError(f"edge {edge} occurs {len(occs)} time(s), expected 2")
    (f1, p1), (f2, p2) = occs
    if f1 == f2:
        raise DegenerateOperationError(
            f"both occurrences of {edge} lie on face {f1}; deletion would not merge two faces"
        )
    merged = _merged_walk(S.faces[f1], p1, S.faces[f2], p2)
    edges = {e: ep for e, ep in S.edges.items() if e != edge}
    faces = {g: w for g, w in S.faces.items() if g not in (f1, f2)}
    faces[merged_id] = merged
    return replace(S, edges=edges, faces=faces)
