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
from .surface import SurfaceComplex, _merged_walk, fresh_id, reversed_walk, split_face


class CellCorrespondence(_Record):
    """Total map from the cells of the original complex into the result.

    Vertices map to the vertex they were merged into; deleted edges and
    faces map to the cell that absorbed them.  Critical cells always map
    injectively, so they can be located in the simplified field.
    """

    mapping: dict[str, str]

    def image_of(self, cell: str) -> str:
        return self.mapping[cell]

    def preimages(self, cell: str) -> tuple[str, ...]:
        return tuple(sorted(c for c, img in self.mapping.items() if img == cell))


class CoreResult(_Record):
    """Outcome of homotopy_core; degenerate_face is set when simplification
    stopped at a non-critical face it cannot remove."""

    field: LineField
    correspondence: CellCorrespondence
    degenerate_face: str | None = None


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


def _root(parent: dict[str, str], cell: str) -> str:
    """The cell that finally absorbed `cell`, compressing the path to it."""
    path = []
    while cell in parent:
        path.append(cell)
        cell = parent[cell]
    for c in path:
        parent[c] = cell
    return cell


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
    is the degenerate face.
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
        emptied = {f: max((rank[e] for _s, e in S.faces[f]), default=0) for f in doomed}
        stop = min(emptied.values())
        degenerate = min(f for f in doomed if emptied[f] == stop)
        contracted = frozenset(order[:stop])
        matched = {e for _v, e in contracted}

    parent: dict[str, str] = {}
    for v, e in contracted:
        tail, head = S.edges[e]
        parent[v] = parent[e] = head if v == tail else tail
    edges = {
        e: (_root(parent, tail), _root(parent, head))
        for e, (tail, head) in S.edges.items()
        if e not in matched
    }
    walks = {
        f: tuple(occ for occ in walk if occ[1] not in matched)
        for f, walk in S.faces.items()
    }
    if degenerate is None:
        degenerate = _collapse_bigons(S, edges, walks, parent)
    T = SurfaceComplex(S.vertices - parent.keys(), edges, walks, name=S.name)
    mapping = {c: _root(parent, c) for c, _d in S.cells()}
    return CoreResult(
        LineField(T, L.matching - contracted), CellCorrespondence(mapping), degenerate
    )


def _collapse_bigons(S, edges, walks, parent) -> str | None:
    """Collapse every removable bigon of an unmatched field in place.

    Each collapse deletes the bigon's smaller edge and merges the bigon
    into the edge's other face g with _merged_walk, in sorted face order
    as delete_edge_merge_faces does.  Contraction moves no occurrence to
    another face, so g is the root of whichever face of the edge's two
    slots in S does not resolve to the bigon; one scan of g's walk finds
    the edge.  Absorbed cells go into `parent`.  Returns the least bigon
    left, which repeats one edge and is degenerate, or None.
    """
    bigons = sorted(f for f, walk in walks.items() if len(walk) == 2)
    for f in bigons:
        walk = walks[f]
        if walk[0][1] == walk[1][1]:
            continue
        i = 0 if walk[0][1] < walk[1][1] else 1
        gone = walk[i][1]
        roots = [_root(parent, h) for h, _p in S.occurrence_index[gone]]
        g = roots[1] if roots[0] == f else roots[0]
        j = next(k for k, (_s, e) in enumerate(walks[g]) if e == gone)
        if f < g:
            merged = _merged_walk(walk, i, walks[g], j)
        else:
            merged = _merged_walk(walks[g], j, walk, i)
        walks[g] = merged
        del walks[f], edges[gone]
        parent[f] = parent[gone] = g
    return next((f for f in bigons if f in walks), None)


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
    _corridor_walk), and the result must pass validate().
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
    hits = [c for c in corridors_from(L, f) if c.end == g]
    if not hits:
        raise CancellationError(f"no corridor from {f} to {g}")
    if len(hits) > 1:
        raise CancellationError(
            f"merging needs a unique corridor from {f} to {g}; found {len(hits)}"
        )
    corridor = hits[0]
    merged_id = fresh_id(f"m_{f}_{g}", S.vertices | S.edges.keys() | S.faces.keys())
    absorbed = {f, g, *corridor.interior, *(c.edge for c in corridor.crossings)}
    edges = {e: ends for e, ends in S.edges.items() if e not in absorbed}
    faces = {h: walk for h, walk in S.faces.items() if h not in absorbed}
    faces[merged_id] = _corridor_walk(S, corridor, merged_id)
    T = SurfaceComplex(S.vertices, edges, faces, name=S.name)
    problems = T.validate()
    if problems:
        raise DegenerateOperationError(
            f"merging {f} and {g} breaks the complex: {problems[0]}"
        )
    mapping = {c: merged_id if c in absorbed else c for c, _d in S.cells()}
    return LineField(T, L.matching), CellCorrespondence(mapping)


def _corridor_walk(S: SurfaceComplex, corridor, merged_id: str) -> tuple:
    """The walk left by deleting the corridor's crossings in order.

    It is the boundary of the joined faces, walked once.  Each face is read
    forward or backward relative to the start face: a crossing whose two
    occurrences carry the same sign, read that way, flips the next face.
    The walk leaves the start face across the first crossing, jumps to the
    opposite slot at every crossing occurrence it meets, and stops back at
    the start slot.  delete_edge_merge_faces keeps the walk of the face
    first in sorted order forward, so every deletion that flips a face
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
        f, i = S.opposite[(f, i)]
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
    v, and only the one path reversed is built.
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
    n = len(S.faces[f])
    corners = [S.corner_vertex(f, pos) for pos in range(n)]
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
    u1 = path.vertices[0]
    q = None
    for k in range(1, n):
        cand = (p + k) % n
        # Unmatched positions among cand, cand + 1, ..., p - 1 (mod n).
        count = sum(1 for i in L._unmatched[f] if (i - cand) % n < (p - cand) % n)
        if count < 2:
            break
        if count == 2 and S.corner_vertex(f, cand) != u1:
            q = cand
            break
    if q is None:
        raise DegenerateOperationError(
            f"every admissible diagonal of {f} is a loop at {u1}"
        )
    taken = {cid for cid, _d in S.cells()}
    diag = fresh_id(f"d_{f}", taken)
    taken.add(diag)
    part_entry = fresh_id(f"{f}_1", taken)
    taken.add(part_entry)
    part_off = fresh_id(f"{f}_0", taken)
    T = split_face(S, f, p, q, diag, part_entry, part_off)
    pairs = set(L.matching)
    for i, e_i in enumerate(path.edges):
        pairs.discard((path.vertices[i], e_i))
        pairs.add((path.vertices[i + 1], e_i))
    pairs.add((u1, diag))
    mapping = {cid: cid for cid, _d in S.cells()}
    mapping[f] = part_entry
    return LineField(T, frozenset(pairs)), CellCorrespondence(mapping)
