"""CW decompositions of compact surfaces given by faces-as-boundary-walks.

A complex is a set of vertices, a set of edges with a designated tail and
head, and a set of faces, each carrying a closed walk of signed edge
occurrences.  +e traverses tail to head, -e the other way.  Loops and
repeated edges are allowed, and nothing here assumes orientability: any
combination of occurrence signs is accepted as long as the walks chain.
"""

from __future__ import annotations

from collections import Counter
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

    When the least key occurs once, the rotation starts there.  Otherwise
    K. S. Booth, Lexicographically least circular substrings, IPL 10 (1980):
    a failure function over the doubled sequence, as in Knuth-Morris-Pratt,
    moves the candidate start k forward whenever a smaller key shows up.
    """
    if not keys:
        return 0
    least = min(keys)
    if keys.count(least) == 1:
        return keys.index(least)
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
        vertices = frozenset(self.vertices)
        object.__setattr__(self, "vertices", vertices)
        if len(vertices.union(self.edges, self.faces)) != (
            len(vertices) + len(self.edges) + len(self.faces)
        ):
            seen: set[str] = set()
            for cell in [*vertices, *self.edges, *self.faces]:
                if cell in seen:
                    raise InvalidComplexError(
                        f"identifier {cell!r} used for more than one cell"
                    )
                seen.add(cell)
        edges = {}
        for e, (tail, head) in self.edges.items():
            if tail not in vertices or head not in vertices:
                raise InvalidComplexError(f"edge {e} references unknown vertex")
            edges[e] = (tail, head)
        faces = {}
        for f, walk in self.faces.items():
            # One pass checks each occurrence and builds its rotation key.
            w = []
            keys = []
            for sign, e in walk:
                if e not in edges:
                    raise InvalidComplexError(f"face {f} references unknown edge {e}")
                if sign == 1:
                    keys.append("+" + e)
                elif sign == -1:
                    keys.append("-" + e)
                else:
                    raise InvalidComplexError(f"face {f} has occurrence with sign {sign}")
                w.append((sign, e))
            k = _least_rotation(keys)
            faces[f] = tuple(w[k:] + w[:k])
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

        Connectivity is counted on the 1-skeleton, which is exact: an edge
        lies in the component of its two ends, and where a walk chains,
        consecutive occurrences share a vertex, so its face already lies in
        the component of its edges.  Only a break can make a face join
        components that its edges do not, so each break adds a link between
        the two vertices it separates.  A face with an empty walk is a
        component of its own.
        """
        problems = []
        edges, faces = self.edges, self.faces
        counts = Counter([e for walk in faces.values() for _s, e in walk])
        for e in sorted(edges):
            c = counts.get(e, 0)
            if c != 2:
                problems.append(f"edge {e} occurs {c} time(s) in boundary walks, expected 2")
        links: dict[str, list[str]] = {v: [] for v in self.vertices}
        for tail, head in edges.values():
            links[tail].append(head)
            links[head].append(tail)
        components = 0
        for f in sorted(faces):
            walk = faces[f]
            if not walk:
                components += 1
                continue
            s, e = walk[0]
            here = edges[e][s > 0]  # the end of walk[0]: head of +e, tail of -e
            for i, (s, e) in enumerate(walk[1:] + walk[:1]):
                there, after = edges[e]
                if s < 0:
                    there, after = after, there
                if here != there:
                    problems.append(
                        f"face {f} breaks between positions {i} and {(i + 1) % len(walk)}:"
                        f" {here} != {there}"
                    )
                    links[here].append(there)
                    links[there].append(here)
                here = after
        seen: set[str] = set()
        for start in links:
            if start not in seen:
                components += 1
                seen.add(start)
                todo = [start]
                while todo:
                    for nxt in links[todo.pop()]:
                        if nxt not in seen:
                            seen.add(nxt)
                            todo.append(nxt)
        if components > 1:
            problems.append(f"incidence structure is disconnected ({components} components)")
        return problems

    # ---- vertex links ----------------------------------------------------

    @cached_property
    def _link_cycles(self) -> dict[str, tuple[tuple[Slot, ...], ...]]:
        # An occurrence leaves the corner at its source through an "out"
        # slot and enters the next corner through an "in" slot; the two
        # occurrences of an edge put each of its ends in two slots, which
        # partner each other.  step maps a slot to partner(flip(slot)).
        faces = self.faces
        step: dict[Slot, Slot] = {}
        # Per edge end: its vertex and its two slots, least first.  A cycle
        # from the least slot passes both, so the other never starts one.
        starts: list[tuple[str, Slot, Slot]] = []
        for e in sorted(self.edges):
            occs = self.occurrence_index[e]
            if len(occs) != 2:
                raise InvalidComplexError(
                    f"vertex links need every edge twice: edge {e} occurs {len(occs)} time(s)"
                )
            ends = []
            for f, p in occs:
                q = (p + 1) % len(faces[f])
                # (tail slot, head slot, and the other slot of each corner)
                if faces[f][p][0] > 0:
                    ends.append(((f, p, "out"), (f, q, "in"), (f, p, "in"), (f, q, "out")))
                else:
                    ends.append(((f, q, "in"), (f, p, "out"), (f, q, "out"), (f, p, "in")))
            (a0, a1, fa0, fa1), (b0, b1, fb0, fb1) = ends
            step[fa0], step[fb0], step[fa1], step[fb1] = b0, a0, b1, a1
            tail, head = self.edges[e]
            starts.append((tail, a0, b0) if a0 < b0 else (tail, b0, a0))
            starts.append((head, a1, b1) if a1 < b1 else (head, b1, a1))
        cycles: dict[str, list[tuple[Slot, ...]]] = {v: [] for v in self.vertices}
        seen: set[Slot] = set()
        for vertex, first, other in starts:
            if first in seen or other in seen:
                continue
            cycle = []
            slot = first
            while True:
                slot = step[slot]
                seen.add(slot)
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

    def _pinched_vertex(self) -> str | None:
        """The least vertex whose link is not a single cycle (see
        vertex_link_cycles), or None when every vertex is a surface point."""
        links = self.vertex_link_cycles()
        return min((v for v, cycles in links.items() if len(cycles) != 1), default=None)

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
        pinched = self._pinched_vertex()
        if pinched is not None:
            raise InvalidComplexError(
                f"cannot dualize: link of vertex {pinched} has {len(links[pinched])} cycles"
            )
        for v in sorted(self.vertices):
            walk = []
            for f, i, side in links[v][0]:
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
