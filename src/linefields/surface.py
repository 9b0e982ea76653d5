"""CW decompositions of compact surfaces given by faces-as-boundary-walks.

A complex is a set of vertices, a set of edges with a designated tail and
head, and a set of faces, each carrying a closed walk of signed edge
occurrences.  +e traverses tail to head, -e the other way.  Loops and
repeated edges are allowed, and nothing here assumes orientability: any
combination of occurrence signs is accepted as long as the walks chain.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import cached_property
from types import SimpleNamespace

from .errors import DegenerateOperationError, InvalidComplexError, OperationError, _Record

# An occurrence is (sign, edge_id) with sign +1 or -1.
Occurrence = tuple[int, str]

# A link slot is (face, corner position, "in" or "out").
Slot = tuple[str, int, str]


def reversed_walk(walk: tuple[Occurrence, ...]) -> tuple[Occurrence, ...]:
    return tuple((-sign, e) for sign, e in reversed(walk))


def _canonical_rotation(walk) -> tuple[Occurrence, ...]:
    """`walk` (a tuple or list) as a tuple at the least rotation of its
    occurrence texts, so corner positions are reproducible.  "+" sorts
    before "-", so the least text is +e for the least positive e, or -e
    for the least e when none is positive.  One loop finds its first
    occurrence k and whether it occurs again; if not, the walk starts at
    k, and a tuple that already does is returned as it is.  A repeated
    least occurrence goes to _rotated, Booth's scan over the texts."""
    k = i = 0
    least_sign, least = walk[0]
    repeated = False
    for s, e in walk:
        if s == least_sign:
            if e < least:
                k, least, repeated = i, e, False
            elif e == least and i != k:
                repeated = True
        elif s > least_sign:
            k, least_sign, least, repeated = i, s, e, False
        i += 1
    if repeated:
        return _rotated(walk, ["+" + e if s > 0 else "-" + e for s, e in walk])
    return tuple(walk[k:] + walk[:k]) if k else tuple(walk)  # tuple(a tuple) is that tuple


def _rotated(walk, keys: list[str]) -> tuple[Occurrence, ...]:
    """`walk` as a tuple that starts at a lexicographically least rotation
    of `keys`, the texts of its occurrences, found in O(len(keys)) by
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
    return tuple(walk[k:] + walk[:k])


def fresh_id(base: str, taken) -> str:
    """A cell identifier not already in `taken`, derived from `base`."""
    return _fresh_ids(taken, (), (), base)[0]


def _fresh_ids(vertices, edges, faces, *bases: str) -> list[str]:
    """An id for each base in turn: the base, or the base with the least
    suffix _2, _3, ... that frees it from the three cell containers, read
    in place as a move edits them, and from the ids picked before it."""
    ids: list[str] = []
    for base in bases:
        x, n = base, 2
        while x in vertices or x in edges or x in faces or x in ids:
            x, n = f"{base}_{n}", n + 1
        ids.append(x)
    return ids


class SurfaceComplex(_Record):
    """Immutable complex; walks are canonically rotated at construction."""

    vertices: frozenset[str]
    edges: dict[str, tuple[str, str]]
    faces: dict[str, tuple[Occurrence, ...]]
    name: str = "surface"
    _compared = ("vertices", "edges", "faces")

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
            if not walk:
                raise InvalidComplexError(f"face {f} has an empty walk")
            w = []
            for sign, e in walk:
                if e not in edges:
                    raise InvalidComplexError(f"face {f} references unknown edge {e}")
                if sign != 1 and sign != -1:
                    raise InvalidComplexError(f"face {f} has occurrence with sign {sign}")
                w.append((sign, e))
            faces[f] = _canonical_rotation(w)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "faces", faces)

    @classmethod
    def _from_checked(cls, vertices: frozenset[str], edges, faces, name: str) -> "SurfaceComplex":
        """A complex from cells that already pass __post_init__'s checks, in
        a frozenset and tuples, with every walk at its canonical rotation;
        each caller rotates only the walks it made.  Nothing is copied."""
        S = cls.__new__(cls)
        for field, value in zip(cls._fields, (vertices, edges, faces, name)):
            object.__setattr__(S, field, value)
        return S

    # ---- basic accessors -------------------------------------------------

    def dim_of(self, cell: str) -> int:
        """0, 1 or 2; a mapping-style lookup: KeyError for an unknown id."""
        if cell in self.vertices:
            return 0
        if cell in self.edges:
            return 1
        if cell in self.faces:
            return 2
        raise KeyError(cell)

    def has_cell(self, cell: str) -> bool:
        return cell in self.vertices or cell in self.edges or cell in self.faces

    def occ_source(self, occ: Occurrence) -> str:
        """The vertex `occ` leaves; KeyError for an unknown edge id."""
        tail, head = self.edges[occ[1]]
        return tail if occ[0] > 0 else head

    def corner_vertex(self, face: str, position: int) -> str:
        """The vertex `face`'s walk leaves at `position`, taken modulo the
        walk's length; KeyError for an unknown face id."""
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

    # The package reads occurrence_index; this list copy stays because
    # perfbench/jobs.py times surface.edge_occurrences by name.
    def edge_occurrences(self, edge: str) -> list[tuple[str, int]]:
        """(face, position) slots where `edge` occurs, in sorted face order."""
        return list(self.occurrence_index.get(edge, ()))

    # ---- invariants ------------------------------------------------------

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def validate(self) -> list[str]:
        """Violations of the closed-surface conditions, a fresh list; empty when clean."""
        return list(self._problems)

    def _require_valid(self) -> None:
        """The complex door: InvalidComplexError with the verdict's first problem."""
        if self._problems:
            raise InvalidComplexError(self._problems[0])

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        """The verdict validate() copies, computed once: a complex never changes.

        Checks that every edge occurs exactly twice among the boundary
        walks, that each walk chains head-to-tail, that the incidence
        structure is connected, and that there is a face.

        Connectivity is counted on the 1-skeleton, which is exact: an edge
        lies in the component of its two ends, and where a walk chains,
        consecutive occurrences share a vertex, so its face already lies in
        the component of its edges.  Only a break can make a face join
        components that its edges do not, so each break adds a link between
        the two vertices it separates.
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
        if not faces:
            problems.append("complex has no face")
        return tuple(problems)

    # ---- darts and vertex links -----------------------------------------

    @cached_property
    def _darts(self) -> SimpleNamespace:
        """The dart table: the walks' occurrences numbered face by face in
        sorted face order, so dart d lies on the face of `order` whose first
        dart (in `firsts`) is the last one at most d, as _corners decodes it.
        Its corner's slots 2d ("in") and 2d + 1 ("out") run in (face,
        position, side) order, and cycles holds each vertex's link cycles
        as slot lists.  Unless every edge occurs twice, only `unpaired` is
        set, naming the least edge that does not."""
        faces, edges = self.faces, self.edges
        order = sorted(faces)
        firsts = []  # per face of order, its first dart
        ends = {e: [] for e in edges}  # per edge, per occurrence: (tail slot, head slot)
        d = 0  # the face's first dart
        for f in order:
            walk = faces[f]
            firsts.append(d)
            base, last = 2 * d, 2 * (d + len(walk)) - 1  # first in slot, last out slot
            out = base + 1
            for s, e in walk:
                # An occurrence leaves its corner's out slot and enters the
                # next corner's in slot; the last enters the first corner.
                into = out + 1 if out != last else base
                ends[e].append((out, into) if s > 0 else (into, out))
                out += 2
            d += len(walk)
        partner = [-1] * (2 * d)
        # Per edge end: its vertex and its two slots, least first.  A cycle
        # from the least slot passes both, so the other never starts one.
        starts = []
        for e in sorted(edges):
            if len(ends[e]) != 2:
                return SimpleNamespace(unpaired=f"edge {e} occurs {len(ends[e])} time(s)")
            (a0, a1), (b0, b1) = ends[e]
            partner[a0], partner[b0], partner[a1], partner[b1] = b0, a0, b1, a1
            tail, head = edges[e]
            starts.append((tail, a0, b0) if a0 < b0 else (tail, b0, a0))
            starts.append((head, a1, b1) if a1 < b1 else (head, b1, a1))
        cycles: dict[str, list[list[int]]] = {v: [] for v in self.vertices}
        seen = bytearray(len(partner))
        for vertex, first, other in starts:
            if not (seen[first] or seen[other]):
                slot = partner[first ^ 1]
                cycle = [slot]
                seen[slot] = 1
                while slot != first:
                    slot = partner[slot ^ 1]
                    cycle.append(slot)
                    seen[slot] = 1
                cycles[vertex].append(cycle)
        return SimpleNamespace(order=order, firsts=firsts, cycles=cycles, unpaired=None)

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
        Decodes the dart table's int cycles on each call (_corners); raises
        InvalidComplexError unless every edge occurs exactly twice.
        """
        darts = self._darts
        if darts.unpaired:
            raise InvalidComplexError(f"vertex links need every edge twice: {darts.unpaired}")
        side = ("in", "out")
        return {v: tuple(_corners(darts, c, side) for c in cs) for v, cs in darts.cycles.items()}

    # ---- dual ------------------------------------------------------------

    def dual(self) -> "SurfaceComplex":
        """The dual complex: a vertex per face, an edge per edge, a face per
        vertex, all keeping their identifiers.

        Requires a complex that passes validate() with one link cycle at
        every vertex; a vertex pinching two umbrellas together has no dual
        in this encoding.  Its cells pass the constructor's checks by
        construction.  Each face walks its vertex's int link cycle, each
        slot decoded by _corners to its corner and low bit.
        """
        if self._problems:
            raise InvalidComplexError(f"cannot dualize: {self._problems[0]}")
        index, faces, darts = self.occurrence_index, self.faces, self._darts
        dual_edges = {e: (occs[0][0], occs[1][0]) for e, occs in index.items()}
        links = darts.cycles
        pinched = min((v for v, cycles in links.items() if len(cycles) != 1), default=None)
        if pinched is not None:
            raise InvalidComplexError(
                f"cannot dualize: link of vertex {pinched} has {len(links[pinched])} cycles"
            )
        dual_faces = {}
        for v in sorted(self.vertices):
            # Each slot crosses an edge: an "out" slot (low bit 1) the
            # occurrence at its corner, an "in" slot the one before; the
            # sign says whether that occurrence is the edge's second.
            walk = []
            for f, i, out in _corners(darts, links[v][0], (0, 1)):
                if not out:
                    i = (i or len(faces[f])) - 1
                e = faces[f][i][1]
                walk.append((1 if index[e][1] == (f, i) else -1, e))
            dual_faces[v] = _canonical_rotation(walk)
        return self._from_checked(frozenset(faces), dual_edges, dual_faces, f"{self.name}_dual")


def _corners(darts: SimpleNamespace, cycle: list[int], side: tuple) -> tuple[tuple, ...]:
    """The one decode of dart-table slots: each slot of `cycle` as (face,
    position, side[low bit]), its face found by bisecting `firsts`."""
    order, firsts = darts.order, darts.firsts
    corners = []
    for s in cycle:
        d = s >> 1
        i = bisect_right(firsts, d) - 1
        corners.append((order[i], d - firsts[i], side[s & 1]))
    return tuple(corners)


# ---- face surgery --------------------------------------------------------
#
# _split_cells, _merge_cells and _collapse_cells are the package's one copy
# of the surgery moves.  They edit plain cell dicts in place and leave each
# walk they make at its canonical rotation, so a caller applying many moves
# builds one complex at the end with SurfaceComplex._from_checked.


def _split_cells(edges, faces, face: str, p: int, q: int, diag: str, a: str, b: str) -> None:
    """Split `face` by a new edge `diag` from its corner-p vertex (tail) to
    its corner-q vertex (head).  Face `a` takes positions p..q-1 followed by
    the diagonal traversed backwards; face `b` takes positions q..p-1
    followed by the diagonal forwards."""
    walk = faces.pop(face)
    n = len(walk)
    p, q = p % n, q % n
    (sp, ep), (sq, eq) = walk[p], walk[q]
    edges[diag] = (edges[ep][sp < 0], edges[eq][sq < 0])
    walk = walk[p:] + walk[:p]
    faces[a] = _canonical_rotation(walk[: (q - p) % n] + ((-1, diag),))
    faces[b] = _canonical_rotation(walk[(q - p) % n :] + ((1, diag),))


def _merge_cells(edges, faces, edge: str, slots, merged_id: str) -> None:
    """Delete `edge` and merge the faces of its two (face, position) slots,
    which lie on two faces, into `merged_id`.  The rest of the face later
    in sorted order (one comparison orders the slots) replaces the
    occurrence in the first, reversed when both occurrences carry the same
    sign, so the merged walk runs through the edge's endpoints the way the
    first face did; for a loop this keeps the vertex link one cycle.
    Raises DegenerateOperationError, editing nothing, when nothing is left."""
    (f1, p1), (f2, p2) = slots
    if f2 < f1:
        f1, p1, f2, p2 = f2, p2, f1, p1
    wa, wb = faces[f1], faces[f2]
    rest = wb[p2 + 1 :] + wb[:p2]
    if wa[p1][0] == wb[p2][0]:
        rest = reversed_walk(rest)
    merged = wa[:p1] + rest + wa[p1 + 1 :]
    if not merged:
        raise DegenerateOperationError(f"deleting {edge} would leave a face with an empty boundary")
    del edges[edge], faces[f1], faces[f2]
    faces[merged_id] = _canonical_rotation(merged)


def _collapse_cells(edges, faces, bigons) -> dict[str, str]:
    """Collapse each bigon of `bigons` in turn, as _merge_cells would: delete
    its lesser edge and merge it into that edge's other face g, which keeps
    its id.  A bigon that repeats one edge when its turn comes is left.
    Returns each deleted bigon and edge mapped to the face that absorbed it.

    A collapse keeps every walk's length: g gets the bigon's other
    occurrence o at the deleted edge's position, or -o when the edge's two
    occurrences carry the same sign, and then, if the bigon sorts before
    g, g's walk is reversed.  So slots stay put: one map from each bigon
    edge to its (face, position) slots, updated as o moves, finds every g
    without a scan.  A touched walk becomes a list with a direction in
    `turn` (-1 once reversed), is written in place, and is reversed and
    rotated once at the end.
    """
    slots: dict[str, list[tuple[str, int]]] = {e: [] for f in bigons for _s, e in faces[f]}
    for f, walk in faces.items():
        for i, (_s, e) in enumerate(walk):
            if e in slots:
                slots[e].append((f, i))
    turn: dict[str, int] = {}
    absorbed: dict[str, str] = {}
    for f in bigons:
        x, y = faces[f]
        if x[1] == y[1]:
            continue
        (s, gone), (t, o) = (x, y) if x[1] < y[1] else (y, x)
        a, b = slots[gone]
        g, j = b if a[0] == f else a
        if g not in turn:
            faces[g], turn[g] = list(faces[g]), 1
        walk, tf, tg = faces[g], turn.get(f, 1), turn[g]
        same = s * tf == walk[j][0] * tg  # signs as each walk reads now
        walk[j] = ((-t if same else t) * tf * tg, o)
        if same and f < g:
            turn[g] = -tg
        moved = slots[o]
        moved[moved[1][0] == f] = (g, j)  # o's slot on f, first or second
        del edges[gone], faces[f]
        absorbed[f] = absorbed[gone] = g
    for g, t in turn.items():
        if g in faces:
            faces[g] = _canonical_rotation(reversed_walk(faces[g]) if t < 0 else faces[g])
    return absorbed


def _surgery_result(S: SurfaceComplex, edges, faces, gone, *new: str) -> SurfaceComplex:
    """The complex of a public surgery move on S, refusing a new id that
    repeats another or names a cell of S outside `gone`, the cells the move
    removes."""
    for i, x in enumerate(new):
        if x in new[:i] or (x not in gone and S.has_cell(x)):
            raise InvalidComplexError(f"identifier {x!r} used for more than one cell")
    return SurfaceComplex._from_checked(S.vertices, edges, faces, S.name)


def split_face(S: SurfaceComplex, face: str, p: int, q: int, diag_id: str, face_a_id: str,
               face_b_id: str) -> SurfaceComplex:
    """Split `face` by a new edge between its corners at positions p and q.

    The diagonal runs from the corner-p vertex (tail) to the corner-q vertex
    (head).  Face A takes positions p..q-1 followed by the diagonal traversed
    backwards; face B takes positions q..p-1 followed by the diagonal forwards.
    Raises OperationError for an unknown face, DegenerateOperationError
    unless p and q are two distinct positions of its walk, and
    InvalidComplexError when a new id repeats another or names a kept cell.
    """
    if face not in S.faces:
        raise OperationError(f"{face} is not a face of the complex")
    n = len(S.faces[face])
    if p == q or not (0 <= p < n and 0 <= q < n):
        raise DegenerateOperationError(f"cannot split face {face} at positions {p}, {q}")
    edges, faces = dict(S.edges), dict(S.faces)
    _split_cells(edges, faces, face, p, q, diag_id, face_a_id, face_b_id)
    return _surgery_result(S, edges, faces, (face,), diag_id, face_a_id, face_b_id)


def delete_edge_merge_faces(S: SurfaceComplex, edge: str, merged_id: str) -> SurfaceComplex:
    """Delete `edge` and merge the two faces holding its occurrences.

    Raises DegenerateOperationError when both occurrences lie on one face
    (deleting would split it or change the Euler characteristic) or when the
    merged boundary walk would be empty, and InvalidComplexError when
    merged_id names a cell the result keeps.
    """
    occs = S.occurrence_index.get(edge, ())
    if len(occs) != 2:
        raise DegenerateOperationError(f"edge {edge} occurs {len(occs)} time(s), expected 2")
    (f1, _p1), (f2, _p2) = occs
    if f1 == f2:
        raise DegenerateOperationError(
            f"both occurrences of {edge} lie on face {f1}; deletion would not merge two faces"
        )
    edges, faces = dict(S.edges), dict(S.faces)
    _merge_cells(edges, faces, edge, occs, merged_id)
    return _surgery_result(S, edges, faces, (edge, f1, f2), merged_id)
