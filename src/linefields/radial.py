"""Corner quadrangulation and the vector-field/line-field bridge.

Every complex has a radial refinement: a vertex on each original vertex
and face, an edge across each corner, and one quadrilateral wrapped
around each original edge.  The refinement of a complex and of its dual
coincide, which is what lets a vector field trade its edge pairs for
vertex-diagonal pairs of a line field on the refinement, and lets the
factorization below take such a line field back to the primal and dual
vector fields it came from.

Radial cells are named after the cells they stand on: w_<cell> for the
vertex on a vertex or face, r_<face>_<position> for the edge across a
corner, q_<edge> for the quadrilateral around an edge.  dvf_to_dlf adds
the diagonal d_<edge> and the halves q_<edge>_0 and q_<edge>_1, which take
a fresh_id suffix when the name is taken.
"""

from __future__ import annotations

from .errors import NotInImageError, _Record
from .linefield import LineField
from .surface import SurfaceComplex, _canonical_rotation, _merged_walk, _split_walk, fresh_id
from .vectorfield import VectorField


class RadialComplex(_Record):
    """A quadrangulation together with its cell bookkeeping.

    vertex_origin maps each radial vertex to the vertex or face it stands
    on; face_origin maps each quadrilateral to the edge it surrounds.
    """

    complex: SurfaceComplex
    vertex_origin: dict[str, str]
    face_origin: dict[str, str]


def _radial_cells(S: SurfaceComplex):
    """The radial refinement of S as plain maps.

    Returns the radial vertex w_<cell> of each vertex and face, the corner
    edges r_<face>_<position> from the corner's vertex to its face, and the
    quadrilaterals q_<edge>.  Cell ids are distinct and positions hold no
    "_", so no two ids collide.

    The quadrilateral of an edge strings together the four corner edges
    flanking the edge's two walk occurrences.  When the occurrences carry
    opposite signs the two flanks chain head-to-tail; when they carry the
    same sign the second flank is traversed the other way around.
    """
    vertex = {cell: f"w_{cell}" for cell in sorted(S.vertices) + sorted(S.faces)}
    edges: dict[str, tuple[str, str]] = {}
    for f in sorted(S.faces):
        for i in range(len(S.faces[f])):
            edges[f"r_{f}_{i}"] = (vertex[S.corner_vertex(f, i)], vertex[f])
    quads: dict[str, tuple] = {}
    for e in sorted(S.edges):
        (f1, i1), (f2, i2) = S.occurrence_index[e]
        s1, s2 = f"r_{f1}_{i1}", f"r_{f1}_{(i1 + 1) % len(S.faces[f1])}"
        s3, s4 = f"r_{f2}_{i2}", f"r_{f2}_{(i2 + 1) % len(S.faces[f2])}"
        if S.faces[f1][i1][0] != S.faces[f2][i2][0]:
            quads[f"q_{e}"] = ((1, s1), (-1, s2), (1, s3), (-1, s4))
        else:
            quads[f"q_{e}"] = ((1, s1), (-1, s2), (1, s4), (-1, s3))
    return vertex, edges, quads


def radial_decomposition(S: SurfaceComplex) -> RadialComplex:
    """Refine S into one quadrilateral per edge (see _radial_cells)."""
    vertex, edges, quads = _radial_cells(S)
    R = SurfaceComplex(frozenset(vertex.values()), edges, quads, name=f"radial_{S.name}")
    return RadialComplex(
        R, {w: cell for cell, w in vertex.items()}, {f"q_{e}": e for e in S.edges}
    )


def _radial_classes(S: SurfaceComplex):
    """The two vertex classes of S when S is a radial refinement, else None.

    S must be a closed surface of quadrilaterals whose 1-skeleton is
    connected and two-coloured, with one link cycle at every vertex, so
    that pinched points are refused.  Every walk has four occurrences, so
    the incidence structure is connected exactly when the 1-skeleton is;
    an isolated vertex is a component of its own.  The class holding the
    least vertex comes first, so the primal/dual labeling is deterministic.
    """
    edges = S.edges
    for walk in S.faces.values():
        if len(walk) != 4:
            return None
        (a0, a1), (b0, b1), (c0, c1), (d0, d1) = (
            edges[e] if s > 0 else edges[e][::-1] for s, e in walk
        )
        if a1 != b0 or b1 != c0 or c1 != d0 or d1 != a0:
            return None
    if any(len(occs) != 2 for occs in S.occurrence_index.values()):
        return None
    if not S.vertices:
        return frozenset(), frozenset()
    adj: dict[str, list[str]] = {v: [] for v in S.vertices}
    for tail, head in edges.values():
        adj[tail].append(head)
        adj[head].append(tail)
    start = min(S.vertices)
    color = {start: 0}
    stack = [start]
    while stack:
        u = stack.pop()
        c = 1 - color[u]
        for x in adj[u]:
            if x not in color:
                color[x] = c
                stack.append(x)
            elif color[x] != c:
                return None
    if len(color) != len(S.vertices):
        return None
    if S._pinched_vertex() is not None:
        return None
    first = frozenset(v for v, c in color.items() if c == 0)
    return first, S.vertices - first


def is_radial(S: SurfaceComplex) -> bool:
    """Whether S is the radial refinement of some complex.

    Checks the bipartite quadrilateral characterization, plus a single
    link cycle at every vertex so that pinched points are refused.
    """
    return _radial_classes(S) is not None


def dvf_to_dlf(V: VectorField) -> LineField:
    """Realize a vector field as a line field on the radial refinement.

    Each matched pair splits the quadrilateral of its edge cell along the
    diagonal at the other cell's radial vertex and matches that vertex
    with the diagonal.  Pairs touch disjoint quadrilaterals, so the
    splits never interfere.  All splits edit the maps of _radial_cells and
    one complex is built at the end; identifiers are the ones that
    splitting pair by pair, in sorted order with split_face, would choose.
    """
    S = V.complex
    vertex, edges, faces = _radial_cells(S)
    taken = {*vertex.values(), *edges, *faces}
    pairs = []
    for lo, up in sorted(V.matching):
        e, other = (lo, up) if lo in S.edges else (up, lo)
        quad = f"q_{e}"
        anchor = vertex[other]
        # Number the corners as the built complex will: a loop, or an edge
        # twice on one face, puts the anchor at two corners.
        walk = _canonical_rotation(faces.pop(quad))
        corners = [edges[r][0] if s > 0 else edges[r][1] for s, r in walk]
        k = corners.index(anchor)
        diag = fresh_id(f"d_{e}", taken)
        taken.add(diag)
        half_a = fresh_id(f"{quad}_0", taken)
        taken.add(half_a)
        half_b = fresh_id(f"{quad}_1", taken)
        taken.add(half_b)
        taken.remove(quad)
        edges[diag] = (anchor, corners[(k + 2) % 4])
        faces[half_a], faces[half_b] = _split_walk(walk, k, (k + 2) % 4, diag)
        pairs.append((anchor, diag))
    image = SurfaceComplex(
        frozenset(vertex.values()), edges, faces, name=f"radial_{S.name}"
    )
    return LineField(image, frozenset(pairs))


def dlf_to_dvf(L: LineField) -> tuple[VectorField, VectorField]:
    """Factor a line field into the vector-field pair it realizes.

    Deleting the matched diagonals must leave a radial refinement; its
    two vertex classes then become the vertices of the primal and the
    dual complex, each quadrilateral an edge, and each vertex of the
    opposite class a face read off the link cycle.  Raises
    NotInImageError when any step refuses.

    The diagonals are deleted in sorted order on plain cell dicts and one
    complex is built before the radial check; merged faces get the
    identifiers, and refusals the messages, that deleting them one at a
    time with delete_edge_merge_faces would give.
    """
    if L._pair_problems:  # validate_line_field, cached on the field
        raise NotInImageError("not a valid line field")
    T = L.complex
    edges = dict(T.edges)
    faces = dict(T.faces)
    taken = {*T.vertices, *T.edges, *T.faces}
    # Each face already merged, mapped to the face that replaced it; slots
    # read from T stay valid on every face not in here.
    merged_into: dict[str, str] = {}
    merged_quad: dict[str, str] = {}
    for _v, d in sorted(L.matching, key=lambda pair: pair[1]):
        occs = T.occurrence_index[d]
        live = [merged_into.get(f, f) for f, _i in occs]
        if len(occs) != 2 or live[0] == live[1]:
            raise NotInImageError(f"matched edge {d} is not a face diagonal")
        if any(len(faces[f]) != 3 for f in live):
            raise NotInImageError(
                f"matched edge {d} does not split a quadrilateral"
            )
        (f1, p1), (f2, p2) = occs
        qid = fresh_id(f"m_{d}", taken)
        taken.difference_update((d, f1, f2))
        taken.add(qid)
        faces[qid] = _merged_walk(faces.pop(f1), p1, faces.pop(f2), p2)
        del edges[d]
        merged_into[f1] = merged_into[f2] = qid
        merged_quad[d] = qid
    T = SurfaceComplex(T.vertices, edges, faces, name=T.name)
    classes = _radial_classes(T)
    if classes is None:
        raise NotInImageError("unmatched edges do not form a radial refinement")
    return _factors(T, *classes, L.matching, merged_quad)


def _factors(R, first, second, matching, merged_quad):
    """Collapse a radial refinement onto the complexes of its two vertex
    classes, first then second.

    Each quadrilateral becomes an edge of both: between its two first-class
    corners, tail at corner k (0 or 1, as corners alternate), and between
    its second-class corners, tail at corner 1 - k.  Each vertex becomes a
    face of the other class's complex whose walk follows its link cycle,
    oriented +1 exactly when the crossing starts at the edge's tail.
    """
    tail_first: dict[str, int] = {}
    edges_first: dict[str, tuple[str, str]] = {}
    edges_second: dict[str, tuple[str, str]] = {}
    ends = R.edges
    for z in sorted(R.faces):
        c = [ends[e][0] if s > 0 else ends[e][1] for s, e in R.faces[z]]
        k = 0 if c[0] in first else 1
        tail_first[z] = k
        edges_first[z] = (c[k], c[k + 2])
        edges_second[z] = (c[1 - k], c[3 - k])

    link = R.vertex_link_cycles()
    faces_first: dict[str, tuple] = {}
    faces_second: dict[str, tuple] = {}
    for u in sorted(R.vertices):
        (cycle,) = link[u]
        # u is a face of the other class's complex.
        flip, faces = (1, faces_second) if u in first else (0, faces_first)
        walk = []
        for z, pos, side in cycle:
            source = (pos - 1) % 4 if side == "in" else (pos + 1) % 4
            walk.append((1 if source == tail_first[z] ^ flip else -1, z))
        faces[u] = tuple(walk)

    pairs = frozenset((v, merged_quad[d]) for v, d in matching)
    return (
        VectorField(SurfaceComplex(first, edges_first, faces_first, name=f"{R.name}_a"), pairs),
        VectorField(SurfaceComplex(second, edges_second, faces_second, name=f"{R.name}_b"), pairs),
    )
