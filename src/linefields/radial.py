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

from operator import itemgetter

from .errors import NotInImageError, _Record
from .linefield import LineField
from .surface import SurfaceComplex, _canonical_rotation, _fresh_ids, _merge_cells, _split_cells
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
    """The radial refinement of S as plain maps, from one pass over the
    walks in sorted face order.

    Returns the radial vertex w_<cell> of each vertex and face, the corner
    edges r_<face>_<position> from the corner's vertex to its face, and the
    quadrilaterals q_<edge>.  Cell ids are distinct and positions hold no
    "_", so no two ids collide.  Refuses at the complex door, with
    InvalidComplexError carrying the first problem of S.validate().

    The quadrilateral of an edge strings together the four corner edges
    flanking the edge's two walk occurrences, which the pass lists per
    edge as (sign, corner edge before, corner edge after).  When the
    occurrences carry opposite signs the two flanks chain head-to-tail;
    when they carry the same sign the second flank is traversed the other
    way around.  Signs run +, -, +, -, so the lesser flank first is the
    canonical rotation.
    """
    S._require_valid()
    ends, walks = S.edges, S.faces
    vertex = {cell: f"w_{cell}" for cell in sorted(S.vertices) + sorted(walks)}
    edges: dict[str, tuple[str, str]] = {}
    flanks: dict[str, list] = {e: [] for e in ends}
    for f in sorted(walks):
        walk, w_f = walks[f], vertex[f]
        names = [f"r_{f}_{i}" for i in range(len(walk))]
        for (s, e), r, after in zip(walk, names, names[1:] + names[:1]):
            edges[r] = (vertex[ends[e][s < 0]], w_f)
            flanks[e].append((s, r, after))
    quads: dict[str, tuple] = {}
    for e in sorted(ends):
        (s1, r1, t1), (s2, r2, t2) = flanks[e]
        a, b = sorted([(r1, t1), (r2, t2) if s1 != s2 else (t2, r2)])
        quads[f"q_{e}"] = ((1, a[0]), (-1, a[1]), (1, b[0]), (-1, b[1]))
    return vertex, edges, quads


def radial_decomposition(S: SurfaceComplex) -> RadialComplex:
    """Refine S into one quadrilateral per edge if S.validate() is empty (see _radial_cells)."""
    vertex, edges, quads = _radial_cells(S)
    R = SurfaceComplex._from_checked(frozenset(vertex.values()), edges, quads, f"radial_{S.name}")
    return RadialComplex(
        R, {w: cell for cell, w in vertex.items()}, {f"q_{e}": e for e in S.edges}
    )


def _factor(R: SurfaceComplex):
    """The complexes of R's two vertex classes, the class holding the least
    vertex first, when R is a radial refinement, else None.

    R must be a closed surface of quadrilaterals whose 1-skeleton is
    connected and two-coloured, with one link cycle at every vertex, so
    that pinched points are refused.  Every walk has four occurrences, so
    the incidence structure is connected exactly when the 1-skeleton is;
    an isolated vertex is left uncoloured.  One pass reads the dart table
    once and checks each condition where it builds from it.

    Each quadrilateral becomes an edge of both complexes: between its two
    corners of the first class, tail at corner k (0 or 1, as corners
    alternate), and between its other two, tail at corner 1 - k.  Each
    vertex becomes a face of the other class's complex whose walk follows
    its link cycle, oriented +1 exactly when the crossing starts at the
    edge's tail.  On quadrilaterals, dart d is position d & 3 of face
    order[d >> 2].
    """
    darts = R._darts
    edges, faces, vertices = R.edges, R.faces, R.vertices
    if darts.unpaired or not vertices:  # an edge not occurring twice, or no vertex
        return None
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for tail, head in edges.values():
        adj[tail].append(head)
        adj[head].append(tail)
    stack = [min(vertices)]
    color = dict.fromkeys(stack, 0)
    while stack:
        u = stack.pop()
        c = 1 - color[u]
        for x in adj[u]:
            if x not in color:
                color[x] = c
                stack.append(x)
            elif color[x] != c:
                return None
    if len(color) != len(vertices):
        return None
    # Per class, first then second: its complex's edges and faces.
    factor_edges: tuple[dict, dict] = ({}, {})
    factor_faces: tuple[dict, dict] = ({}, {})
    order = darts.order
    tail_first: list[int] = []  # per face index: k, the colour of corner 0
    for z in order:
        walk = faces[z]
        if len(walk) != 4:
            return None
        (a0, a1), (b0, b1), (c0, c1), (d0, d1) = (
            edges[e] if s > 0 else edges[e][::-1] for s, e in walk
        )
        if a1 != b0 or b1 != c0 or c1 != d0 or d1 != a0:
            return None
        k = color[a0]
        tail_first.append(k)
        factor_edges[k][z], factor_edges[1 - k][z] = (a0, c0), (b0, d0)
    link = darts.cycles
    for u in sorted(vertices):
        if len(link[u]) != 1:
            return None  # a pinched vertex
        # u is a face of the other class's complex, whose tails sit at
        # corners k ^ flip.
        flip = 1 - color[u]
        walk = []
        for s in link[u][0]:
            d = s >> 1
            source = (d + 1) & 3 if s & 1 else (d - 1) & 3
            walk.append((1 if source == tail_first[d >> 2] ^ flip else -1, order[d >> 2]))
        factor_faces[flip][u] = _canonical_rotation(walk)
    first = frozenset(v for v, c in color.items() if not c)
    build = SurfaceComplex._from_checked
    return (
        build(first, factor_edges[0], factor_faces[0], f"{R.name}_a"),
        build(vertices - first, factor_edges[1], factor_faces[1], f"{R.name}_b"),
    )


def is_radial(S: SurfaceComplex) -> bool:
    """Whether S is the radial refinement of some complex.

    Checks the bipartite quadrilateral characterization, plus a single
    link cycle at every vertex so that pinched points are refused.  The
    check is the factoring's pass (_factor), so it builds the two factor
    complexes and drops them.
    """
    return _factor(S) is not None


def dvf_to_dlf(V: VectorField) -> LineField:
    """Realize a vector field as a line field on the radial refinement.

    Each matched pair splits the quadrilateral of its edge cell along the
    diagonal at the other cell's radial vertex and matches that vertex
    with the diagonal.  Pairs touch disjoint quadrilaterals, so the
    splits never interfere.  All splits edit the maps of _radial_cells and
    one complex is built at the end; identifiers are the ones split_face,
    splitting pair by pair in sorted order, would choose, a plain name
    tried first.  Refuses an unsound field before any work, at its door.
    """
    V._require_valid()
    S = V.complex
    vertex, edges, faces = _radial_cells(S)
    radial_vertices = frozenset(vertex.values())
    pairs = []
    for lo, up in V._pairs:
        # Corners 0 and 2 of q_<e> stand on the ends of e, corners 1 and 3
        # on its faces.  The anchor is the first corner on the other cell:
        # a loop, or an edge twice on one face, puts it at two corners.
        e, other, k = (lo, up, 1) if lo in S.edges else (up, lo, 0)
        quad = f"q_{e}"
        anchor = vertex[other]
        if edges[faces[quad][k][1]][k] != anchor:  # +r starts at its tail, -r at its head
            k += 2
        diag, half_a, half_b = names = f"d_{e}", f"{quad}_0", f"{quad}_1"
        if diag in edges or half_a in faces or half_b in faces:  # only edges are d_, faces q_
            diag, half_a, half_b = _fresh_ids(radial_vertices, edges, faces, *names)
        _split_cells(edges, faces, quad, k, k + 2, diag, half_a, half_b)
        pairs.append((anchor, diag))
    image = SurfaceComplex._from_checked(radial_vertices, edges, faces, f"radial_{S.name}")
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
    identifiers, a plain m_<diagonal> tried first, and refusals the
    messages, that deleting them one at a time with delete_edge_merge_faces
    would give.
    """
    if L._pair_problems:  # validate_line_field, cached on the field
        raise NotInImageError("not a valid line field")
    T = L.complex
    vertices, edges = T.vertices, dict(T.edges)
    faces = dict(T.faces)
    # Each face already merged, mapped to the face that replaced it; slots
    # read from T stay valid on every face not in here.
    merged_into: dict[str, str] = {}
    pairs = []  # each (vertex, quadrilateral its diagonal merged into)
    slots = {d: [] for _v, d in L.matching}  # each diagonal's (face, position) slots
    for f, walk in T.faces.items():  # in dict order: _merge_cells sorts the two
        for i, (_s, e) in enumerate(walk):
            if e in slots:
                slots[e].append((f, i))
    for v, d in sorted(L._pairs, key=itemgetter(1)):
        occs = slots[d]
        if len(occs) == 2:
            (f, _i), (g, _j) = occs
            f, g = merged_into.get(f, f), merged_into.get(g, g)
        if len(occs) != 2 or f == g:
            raise NotInImageError(f"matched edge {d} is not a face diagonal")
        if len(faces[f]) != 3 or len(faces[g]) != 3:
            raise NotInImageError(f"matched edge {d} does not split a quadrilateral")
        qid = f"m_{d}"
        if qid in vertices or qid in edges or qid in faces:
            (qid,) = _fresh_ids(vertices, edges, faces, qid)
        _merge_cells(edges, faces, d, occs, qid)
        merged_into[f] = merged_into[g] = qid
        pairs.append((v, qid))
    factors = _factor(SurfaceComplex._from_checked(vertices, edges, faces, T.name))
    if factors is None:
        raise NotInImageError("unmatched edges do not form a radial refinement")
    return VectorField(factors[0], pairs), VectorField(factors[1], pairs)
