"""Simplification moves for acyclic line fields.

Two local moves shrink the complex without touching the critical cells:
contracting a matched vertex-edge pair, and collapsing a two-sided
non-critical face.  Iterating both yields a homotopy core with empty
matching.  Two further moves trade critical cells away: merging two
critical faces along a unique corridor, and cancelling a critical vertex
against a critical face along a unique separatrix.  Every move returns the
new field together with a cell correspondence.
"""

from __future__ import annotations

import heapq

from .dynamics import LPath, _count_walks, _nth_walk, _require_acyclic, corridors_from
from .errors import CancellationError, DegenerateOperationError, OperationError, _Record
from .linefield import LineField
from .surface import (SurfaceComplex, _canonical_rotation, _collapse_cells, _fresh_ids,
                      _split_cells, reversed_walk)


class CellCorrespondence(_Record):
    """Total map from the cells of the original complex into the result.

    Vertices map to the vertex they were merged into; deleted edges and
    faces map to the cell that absorbed them.  Critical cells always map
    injectively, so they can be located in the simplified field.
    """

    mapping: dict[str, str]

    def image_of(self, cell: str) -> str:
        """The image of `cell`; a mapping-style lookup: KeyError for an unknown cell."""
        return self.mapping[cell]

    def preimages(self, cell: str) -> tuple[str, ...]:
        return tuple(sorted(c for c, img in self.mapping.items() if img == cell))


class CoreResult(_Record):
    """Outcome of homotopy_core; degenerate_face is set when simplification
    stopped at a non-critical face it cannot remove."""

    field: LineField
    correspondence: CellCorrespondence
    degenerate_face: str | None = None


def _moved(S, T, matching, moved) -> tuple[LineField, CellCorrespondence]:
    """A move's result: LineField(T, matching), and the correspondence that
    is the identity on every cell of S, in cell order, updated with `moved`."""
    cells = (*S.vertices, *S.edges, *S.faces)
    mapping = dict(zip(cells, cells))
    mapping.update(moved)
    return LineField(T, matching), CellCorrespondence(mapping)


# ---- homotopy core -------------------------------------------------------


def _contraction_order(L: LineField) -> list[tuple[str, str]]:
    """Pairs ordered so no pair's path target is contracted after it; of
    the pairs ready at each point, the least vertex goes first."""
    steps = L._steps
    waiting: dict[str, list[str]] = {}
    ready = []
    for v, ((_e, target),) in steps.items():
        if target in steps:
            waiting.setdefault(target, []).append(v)
        else:
            ready.append(v)
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append((v, steps[v][0][0]))
        for u in waiting.get(v, ()):
            heapq.heappush(ready, u)
    return order


def _to_roots(parent: dict[str, str]) -> None:
    """Point every cell of `parent` at the cell that finally absorbed it, in
    one pass that compresses each chain the first time it is walked."""
    for c, r in parent.items():
        while r in parent:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]


def homotopy_core(L: LineField) -> CoreResult:
    """Contract every matched pair, then collapse every removable face.

    The result has an empty matching and, unless a degenerate face stops
    simplification, only critical faces.  Critical cells, their indices,
    and the topological graph survive under the correspondence.

    The moves edit plain cell dicts and one complex is built at the end,
    equal to what contracting the pairs one at a time in
    _contraction_order, then collapsing the least removable bigon until
    none is left, would give.  A contracted vertex and its edge map to the
    end of the vertex's matched chain.  When some walk holds only matched
    edges, contraction stops just before the first pair in that order that
    would empty a walk, and the least face it would empty is the
    degenerate face.  Otherwise, as a collapse keeps every walk's length,
    no bigon becomes removable later and one pass over the bigons in
    sorted order suffices; the least bigon left, which repeats one edge,
    is the degenerate face.  Each collapse substitutes one occurrence by
    position (surface._collapse_cells), so the core costs time linear in
    the walks, even where one face absorbs thousands of bigons.  Every
    contracted or absorbed cell is pointed at its final root once
    (_to_roots), so edge ends and the correspondence are plain lookups.
    """
    _require_acyclic(L)
    S = L.complex
    matched = L._lower_of
    contracted = L.matching
    degenerate = None
    doomed = [f for f, at in L._unmatched.items() if not at]
    if doomed and matched:
        order = _contraction_order(L)
        rank = {e: i for i, (_v, e) in enumerate(order)}
        emptied = {f: max(rank[e] for _s, e in S.faces[f]) for f in doomed}
        stop = min(emptied.values())
        degenerate = min(f for f in doomed if emptied[f] == stop)
        contracted = frozenset(order[:stop])
        matched = {e for _v, e in contracted}

    parent: dict[str, str] = {}
    for v, e in contracted:
        tail, head = S.edges[e]
        parent[v] = parent[e] = head if v == tail else tail
    _to_roots(parent)
    root = parent.get
    edges = {e: (root(t, t), root(h, h)) for e, (t, h) in S.edges.items() if e not in matched}
    walks = {}
    for f, walk in S.faces.items():
        kept = [occ for occ in walk if occ[1] not in matched]
        walks[f] = walk if len(kept) == len(walk) else _canonical_rotation(kept)
    if degenerate is None:
        bigons = sorted([f for f, walk in walks.items() if len(walk) == 2])
        absorbed = _collapse_cells(edges, walks, bigons)
        _to_roots(absorbed)  # a face that absorbed a bigon may be absorbed in turn
        parent.update(absorbed)
        degenerate = next((f for f in bigons if f in walks), None)
    T = SurfaceComplex._from_checked(S.vertices.difference(parent), edges, walks, S.name)
    return CoreResult(*_moved(S, T, L.matching - contracted, parent), degenerate)


# ---- cancellation --------------------------------------------------------


def merge_critical_faces(
    L: LineField, f: str, g: str
) -> tuple[LineField, CellCorrespondence]:
    """Merge two critical faces along the unique corridor joining them.

    All crossing edges of the corridor are deleted; f, g, and the interior
    faces become one face whose doubled index is the sum of the two
    inputs'.  The matching is untouched, so acyclicity is preserved.  The
    merged walk is the one that deleting the crossings one at a time with
    delete_edge_merge_faces would leave, built in one pass (see
    _corridor_walk).  An unsound field is refused at the field door.  The
    result needs no check: the corridor's faces (f and g critical, interior
    faces of count 2, a reversible trace) and crossings are distinct, so each
    deletion merges two faces, keeping every edge twice, every walk chaining
    and the complex connected; _corridor_walk refuses an empty walk.
    """
    S = L.complex
    for x in (f, g):
        if x not in S.faces:
            raise OperationError(f"{x} is not a face of the complex")
    if f == g:
        raise OperationError("cannot merge a face with itself")
    for x in (f, g):
        if len(L._unmatched[x]) == 2:
            raise OperationError(f"face {x} is not critical")
    L._require_valid()
    ends = L._ends.get(f)
    if ends is None:
        ends = L._ends[f] = {}
        for c in corridors_from(L, f):
            ends.setdefault(c.end, []).append(c)
    hits = ends.get(g, [])
    if not hits:
        raise CancellationError(f"no corridor from {f} to {g}")
    if len(hits) > 1:
        raise CancellationError(
            f"merging needs a unique corridor from {f} to {g}; found {len(hits)}"
        )
    corridor = hits[0]
    (merged_id,) = _fresh_ids(S.vertices, S.edges, S.faces, f"m_{f}_{g}")
    absorbed = {f, g, *corridor.interior, *(c.edge for c in corridor.crossings)}
    edges = {e: ends for e, ends in S.edges.items() if e not in absorbed}
    faces = {h: walk for h, walk in S.faces.items() if h not in absorbed}
    faces[merged_id] = _canonical_rotation(_corridor_walk(S, corridor, merged_id))
    T = SurfaceComplex._from_checked(S.vertices, edges, faces, S.name)
    return _moved(S, T, L.matching, dict.fromkeys(absorbed, merged_id))


def _corridor_walk(S: SurfaceComplex, corridor, merged_id: str) -> tuple:
    """The walk left by deleting the corridor's crossings in order.

    It is the boundary of the joined faces, walked once.  Each face is read
    forward or backward relative to the start face: a crossing whose two
    occurrences carry the same sign, read that way, flips the next face.
    The walk leaves the start face across the first crossing, jumps to the
    other slot of the edge at every crossing occurrence it meets, and stops
    back at the start slot.  delete_edge_merge_faces keeps the walk of the
    face first in sorted order forward, so every deletion that flips a face
    sorting before the merged one, judged in the merged walk's own
    direction, reverses the merged walk.  Interior faces keep two
    occurrences, so only the last deletion can leave an empty walk, which
    raises DegenerateOperationError.
    """
    crossings = corridor.crossings
    gone = {c.edge for c in crossings}
    start = crossings[0].depart
    turn = {start[0]: 1}
    backwards, name = False, start[0]
    for c in crossings:
        (f, p), (g, q) = c.depart, c.arrive
        turn[g] = -turn[f] * S.faces[f][p][0] * S.faces[g][q][0]
        if (turn[g] < 0) != backwards and g < name:
            backwards = not backwards
        name = merged_id
    merged = []
    f, i = start
    while True:
        a, b = S.occurrence_index[S.faces[f][i][1]]
        f, i = b if a == (f, i) else a
        walk, d = S.faces[f], turn[f]
        i = (i + d) % len(walk)
        while walk[i][1] not in gone:
            s, e = walk[i]
            merged.append((d * s, e))
            i = (i + d) % len(walk)
        if (f, i) == start:
            break
    if not merged:
        raise DegenerateOperationError(
            f"deleting {crossings[-1].edge} would leave a face with an empty boundary"
        )
    return reversed_walk(merged) if backwards else tuple(merged)


def cancel_vertex_face(
    L: LineField, v: str, f: str
) -> tuple[LineField, CellCorrespondence]:
    """Cancel a critical vertex against a negative-index critical face.

    Reverses the unique matched-step path from a corner of f down to v and
    splits f along a new diagonal matched to the path's first vertex.  The
    split-off face takes exactly two unmatched occurrences and is
    non-critical; the rest of f keeps the remaining index.

    Uniqueness is counted over the chains of every corner occurrence of f,
    including chains that revisit f's own boundary edges.  Counting only
    graph separatrices would admit reversals that close a cycle through an
    excluded chain.  One memoised pass finds which corners' chains reach
    v, and only the one path reversed is built.  The diagonal runs from the
    hit corner p to the first q after it with two unmatched occurrences in
    q..p-1; no other corner is at u1 (it would be a hit), so it is no loop.
    An unsound field is refused at the field door.
    """
    S = L.complex
    if v not in S.vertices:
        raise OperationError(f"{v} is not a vertex of the complex")
    if f not in S.faces:
        raise OperationError(f"{f} is not a face of the complex")
    if v in L._upper_of:
        raise OperationError(f"{v} is matched, not critical")
    c = len(L._unmatched[f])
    if c < 3:
        raise OperationError(
            f"face {f} has doubled index {2 - c}; cancellation needs a negative index"
        )
    _require_acyclic(L)
    walk, matched = S.faces[f], L._lower_of
    n = len(walk)
    corners = [S.edges[e][s < 0] for s, e in walk]
    reaches = _count_walks(L._steps, corners, v)
    hits = [pos for pos, u in enumerate(corners) if reaches[u]]
    if not hits:
        raise CancellationError(f"no path from {f} to {v}")
    if len(hits) > 1:
        raise CancellationError(
            f"cancellation needs a unique path from {f} to {v}; found {len(hits)}"
        )
    p = hits[0]
    path = _nth_walk(L._steps, {}, corners[p], 0, LPath)
    u1, q = corners[p], (p + 1) % n
    count = c - (walk[p][1] not in matched)  # unmatched in q, ..., p - 1 (mod n)
    while count > 2:
        count -= walk[q][1] not in matched
        q = (q + 1) % n
    diag, part_entry, part_off = _fresh_ids(S.vertices, S.edges, S.faces, f"d_{f}", f"{f}_1", f"{f}_0")
    edges, faces = dict(S.edges), dict(S.faces)
    _split_cells(edges, faces, f, p, q, diag, part_entry, part_off)
    T = SurfaceComplex._from_checked(S.vertices, edges, faces, S.name)
    pairs = set(L.matching)
    for i, e_i in enumerate(path.edges):
        pairs.discard((path.vertices[i], e_i))
        pairs.add((path.vertices[i + 1], e_i))
    pairs.add((u1, diag))
    return _moved(S, T, frozenset(pairs), {f: part_entry})
