"""Shared fixtures and generators for the test suite.

Complex builders return fresh objects so tests can mutate derived data
freely.  The random-corpus helpers apply Euler-characteristic-preserving
moves (edge subdivision, face splitting) to small seeds, which keeps the
generated complexes valid by construction.
"""

import random
import sys
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass

from linefields import LineField, VectorField
from linefields.surface import Occurrence, SurfaceComplex, fresh_id, split_face


def w(text):
    """Parse a walk written like "+e12 -e13" into occurrence tuples."""
    out = []
    for token in text.split():
        sign = 1 if token[0] == "+" else -1
        out.append((sign, token[1:]))
    return tuple(out)


@contextmanager
def recursion_limit(depth):
    """Raise the interpreter's recursion limit to at least `depth` for the
    body of a with-block, restoring it afterwards."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, depth))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def is_loop(S, edge):
    """Whether `edge` of S starts and ends at one vertex."""
    tail, head = S.edges[edge]
    return tail == head


def occ_target(S, occ):
    """The vertex an occurrence of S ends at: the head of +e, the tail of -e."""
    tail, head = S.edges[occ[1]]
    return head if occ[0] > 0 else tail


def is_rotation(walk, other):
    """Equality of closed walks irrespective of starting position."""
    return len(walk) == len(other) and any(
        walk == other[i:] + other[:i] for i in range(max(len(other), 1))
    )


# ---- primitives only the tests use -----------------------------------------


def subdivide_edge(
    S: SurfaceComplex, edge: str, vertex_id: str, edge_a_id: str, edge_b_id: str
) -> SurfaceComplex:
    """Replace `edge` by two edges through a new midpoint vertex."""
    tail, head = S.edges[edge]
    edges = {e: ep for e, ep in S.edges.items() if e != edge}
    edges[edge_a_id] = (tail, vertex_id)
    edges[edge_b_id] = (vertex_id, head)
    faces = {}
    for f, walk in S.faces.items():
        w: list[Occurrence] = []
        for sign, e in walk:
            if e != edge:
                w.append((sign, e))
            elif sign > 0:
                w.extend([(1, edge_a_id), (1, edge_b_id)])
            else:
                w.extend([(-1, edge_b_id), (-1, edge_a_id)])
        faces[f] = tuple(w)
    return SurfaceComplex(S.vertices | {vertex_id}, edges, faces, name=S.name)


def cells(S: SurfaceComplex) -> list[tuple[str, int]]:
    """(cell, dimension) pairs: the vertices, edges and faces, each sorted."""
    return [(c, d) for d, group in enumerate((S.vertices, S.edges, S.faces)) for c in sorted(group)]


def corners(S: SurfaceComplex) -> list[tuple[str, str, int]]:
    """All (vertex, face, walk-position) triples; 2|E| of them when valid."""
    out = []
    for f in sorted(S.faces):
        for i in range(len(S.faces[f])):
            out.append((S.corner_vertex(f, i), f, i))
    return out


@dataclass(frozen=True)
class HasseDiagram:
    """Cells tagged with dimension plus incidence multiplicities.

    A loop is incident to its vertex with multiplicity 2, and an edge
    occurring twice on one walk is incident to that face with multiplicity 2;
    both incidence levels total 2|E|.
    """

    dims: dict[str, int]
    incidences: dict[tuple[str, str], int]

    def multiplicity(self, lower: str, upper: str) -> int:
        return self.incidences.get((lower, upper), 0)

    def level_total(self, lower_dim: int) -> int:
        return sum(
            m for (lo, _up), m in self.incidences.items() if self.dims[lo] == lower_dim
        )


def hasse_diagram(S: SurfaceComplex) -> HasseDiagram:
    incidences: Counter = Counter()
    for e, (tail, head) in S.edges.items():
        incidences[(tail, e)] += 1
        incidences[(head, e)] += 1
    for f in S.faces:
        for _s, e in S.faces[f]:
            incidences[(e, f)] += 1
    dims = dict(cells(S))
    return HasseDiagram(dims=dims, incidences=dict(incidences))


# ---- named complexes -----------------------------------------------------


def tetra():
    return SurfaceComplex(
        vertices=frozenset({"v1", "v2", "v3", "v4"}),
        edges={
            "e12": ("v1", "v2"),
            "e13": ("v1", "v3"),
            "e14": ("v1", "v4"),
            "e23": ("v2", "v3"),
            "e24": ("v2", "v4"),
            "e34": ("v3", "v4"),
        },
        faces={
            "f123": w("+e12 +e23 -e13"),
            "f124": w("+e14 -e24 -e12"),
            "f134": w("+e13 +e34 -e14"),
            "f234": w("+e24 -e34 -e23"),
        },
        name="tetra",
    )


def tetra_without_face():
    """The tetrahedron with face f234 deleted: it parses but fails validate."""
    S = tetra()
    faces = {f: walk for f, walk in S.faces.items() if f != "f234"}
    return SurfaceComplex(S.vertices, S.edges, faces, name=S.name)


# A single triangle in OFF: it parses but fails validate (open edges).
OPEN_OFF = "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


def torus_one():
    """One-vertex torus: two loops, one square face."""
    return SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("+a +b -a -b")},
        name="torus1",
    )


def disk_sphere():
    """Sphere as two one-sided disks glued along a loop."""
    return SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"e": ("v", "v")},
        faces={"n": w("+e"), "s": w("-e")},
        name="disk_sphere",
    )


def proj_plane():
    return SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v")},
        faces={"F": w("+a +a")},
        name="proj_plane",
    )


def klein():
    return SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("+a +b -a +b")},
        name="klein",
    )


def slit_sphere():
    """Sphere as one bigon face traversing its single edge both ways."""
    return SurfaceComplex(
        vertices=frozenset({"u", "w"}),
        edges={"e": ("u", "w")},
        faces={"F": w("+e -e")},
        name="slit_sphere",
    )


def theta_sphere():
    """Sphere cut by three parallel edges into three bigons."""
    return SurfaceComplex(
        vertices=frozenset({"u", "w"}),
        edges={"a": ("u", "w"), "b": ("u", "w"), "c": ("u", "w")},
        faces={"fab": w("+a -b"), "fbc": w("+b -c"), "fca": w("+c -a")},
        name="theta_sphere",
    )


def cone_sphere(n):
    """A sphere of one n-gon face f, with rim vertices u<i> and rim edges
    r<i> from u<i> to u<i+1>, and n triangles t<i> on spokes s<i> from u<i>
    to the apex v: a wheel, whose apex has degree n."""
    vertices = frozenset({"v", *(f"u{i}" for i in range(n))})
    edges = {f"r{i}": (f"u{i}", f"u{(i + 1) % n}") for i in range(n)}
    edges.update({f"s{i}": (f"u{i}", "v") for i in range(n)})
    faces = {"f": w(" ".join(f"+r{i}" for i in range(n)))}
    faces.update({f"t{i}": w(f"-r{i} +s{i} -s{(i + 1) % n}") for i in range(n)})
    return SurfaceComplex(vertices, edges, faces, name=f"cone{n}")


def pillow(n):
    """A sphere of two n-gons with a bigon on every edge: rim vertices u<i>,
    edges a<i> and b<i> from u<i> to u<i+1>, the n-gon top on the a<i>, the
    n-gon bottom on the b<i> backwards, and the bigon g<i> on +b<i> -a<i>."""
    vertices = frozenset(f"u{i}" for i in range(n))
    edges = {f"{x}{i}": (f"u{i}", f"u{(i + 1) % n}") for x in "ab" for i in range(n)}
    faces = {"top": w(" ".join(f"+a{i}" for i in range(n))),
             "bottom": w(" ".join(f"-b{i}" for i in reversed(range(n))))}
    faces.update({f"g{i}": w(f"+b{i} -a{i}") for i in range(n)})
    return SurfaceComplex(vertices, edges, faces, name=f"pillow{n}")


def bigon_chain(k):
    """A sphere on one vertex v with loops a0..a<k>: the one-sided disks
    f on +a0 and g on -a<k>, joined by the bigons h<i> on -a<i> +a<i+1>.
    With no matching, the one corridor from f to g passes every bigon, and
    deleting its crossings leaves an empty walk."""
    edges = {f"a{i}": ("v", "v") for i in range(k + 1)}
    faces = {"f": w("+a0"), "g": w(f"-a{k}")}
    faces.update({f"h{i}": w(f"-a{i} +a{i + 1}") for i in range(k)})
    return SurfaceComplex(frozenset({"v"}), edges, faces, name=f"bigon_chain{k}")


def one_face(g):
    """The orientable surface of genus g as one 4g-gon: one vertex v, loops
    a<i> and b<i>, and the face F walking +a0 +b0 -a0 -b0 +a1 ... -b<g-1>."""
    loops = [(f"a{i}", f"b{i}") for i in range(g)]
    return SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={e: ("v", "v") for pair in loops for e in pair},
        faces={"F": w(" ".join(f"+{a} +{b} -{a} -{b}" for a, b in loops))},
        name=f"one_face{g}",
    )


def grid_torus(rows, cols):
    """Torus cut into a rows-by-cols grid of square faces.

    Row and column numbers are zero-padded to a common width so that
    identifiers stay distinct from 10x10 up; below that they are unpadded.
    """
    width = len(str(max(rows, cols) - 1))

    def at(r, c):
        return f"{r % rows:0{width}}{c % cols:0{width}}"

    vertices = {f"v{at(r, c)}" for r in range(rows) for c in range(cols)}
    edges = {}
    for r in range(rows):
        for c in range(cols):
            edges[f"h{at(r, c)}"] = (f"v{at(r, c)}", f"v{at(r, c + 1)}")
            edges[f"u{at(r, c)}"] = (f"v{at(r, c)}", f"v{at(r + 1, c)}")
    faces = {}
    for r in range(rows):
        for c in range(cols):
            faces[f"q{at(r, c)}"] = w(
                f"+h{at(r, c)} +u{at(r, c + 1)} -h{at(r + 1, c)} -u{at(r, c)}"
            )
    return SurfaceComplex(
        vertices=frozenset(vertices), edges=edges, faces=faces, name=f"grid{rows}x{cols}"
    )


def grid_klein(rows, cols):
    """Klein bottle cut into a rows-by-cols grid of square faces.

    Like grid_torus, except that the last row of faces is glued to row 0
    with the columns reflected, so the horizontal edges of row 0 occur with
    the same sign on both of their faces.
    """
    width = len(str(max(rows, cols) - 1))

    def at(r, c):
        return f"{r % rows:0{width}}{c % cols:0{width}}"

    vertices = {f"v{at(r, c)}" for r in range(rows) for c in range(cols)}
    edges = {}
    for r in range(rows):
        for c in range(cols):
            edges[f"h{at(r, c)}"] = (f"v{at(r, c)}", f"v{at(r, c + 1)}")
            below = at(r + 1, c) if r + 1 < rows else at(0, -c)
            edges[f"u{at(r, c)}"] = (f"v{at(r, c)}", f"v{below}")
    faces = {}
    for r in range(rows):
        for c in range(cols):
            top = f"-h{at(r + 1, c)}" if r + 1 < rows else f"+h{at(0, -c - 1)}"
            faces[f"q{at(r, c)}"] = w(f"+h{at(r, c)} +u{at(r, c + 1)} {top} -u{at(r, c)}")
    return SurfaceComplex(
        vertices=frozenset(vertices), edges=edges, faces=faces, name=f"klein{rows}x{cols}"
    )


def pinched_spheres():
    """Two disk-spheres sharing their vertex; passes validate, has no dual."""
    return SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"e1": ("v", "v"), "e2": ("v", "v")},
        faces={"n1": w("+e1"), "s1": w("-e1"), "n2": w("+e2"), "s2": w("-e2")},
        name="pinched",
    )


def suffixed(S, suffix):
    """S with `suffix` appended to every cell id."""
    return SurfaceComplex(
        vertices=frozenset(v + suffix for v in S.vertices),
        edges={e + suffix: (t + suffix, h + suffix) for e, (t, h) in S.edges.items()},
        faces={
            f + suffix: tuple((s, e + suffix) for s, e in walk)
            for f, walk in S.faces.items()
        },
    )


def disjoint_union(A, B):
    return SurfaceComplex(
        vertices=A.vertices | B.vertices,
        edges={**A.edges, **B.edges},
        faces={**A.faces, **B.faces},
    )


def all_seed_builders():
    return [
        tetra,
        torus_one,
        disk_sphere,
        proj_plane,
        klein,
        slit_sphere,
        theta_sphere,
        lambda: grid_torus(2, 2),
    ]


# ---- independent surface check -------------------------------------------


def is_closed_surface(S):
    """Closed-surface test written separately from the library's validate."""
    if not S.faces:
        return False
    flat = sorted(e for walk in S.faces.values() for _s, e in walk)
    if flat != sorted(list(S.edges) + list(S.edges)):
        return False
    for walk in S.faces.values():
        n = len(walk)
        for i in range(n):
            s1, e1 = walk[i]
            s2, e2 = walk[(i + 1) % n]
            t1, h1 = S.edges[e1]
            t2, h2 = S.edges[e2]
            if (h1 if s1 == 1 else t1) != (t2 if s2 == 1 else h2):
                return False
    parent = {c: c for c, _d in cells(S)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for e, (t, h) in S.edges.items():
        union(e, t)
        union(e, h)
    for f, walk in S.faces.items():
        for _s, e in walk:
            union(f, e)
    return len({find(c) for c, _d in cells(S)}) == 1


# ---- random corpus -------------------------------------------------------


def subdivide_move(S, rng):
    e = rng.choice(sorted(S.edges))
    taken = set(S.vertices) | set(S.edges) | set(S.faces)
    mid = fresh_id(f"{e}m", taken)
    taken.add(mid)
    ea = fresh_id(f"{e}a", taken)
    taken.add(ea)
    eb = fresh_id(f"{e}b", taken)
    return subdivide_edge(S, e, mid, ea, eb)


def split_move(S, rng):
    f = rng.choice(sorted(S.faces))
    n = len(S.faces[f])
    if n < 2:
        return None
    p = rng.randrange(n)
    q = rng.randrange(n)
    if p == q:
        return None
    taken = set(S.vertices) | set(S.edges) | set(S.faces)
    d = fresh_id(f"{f}d", taken)
    taken.add(d)
    fa = fresh_id(f"{f}a", taken)
    taken.add(fa)
    fb = fresh_id(f"{f}b", taken)
    return split_face(S, f, p, q, d, fa, fb)


def random_complex(rng, seed_builder, n_moves):
    S = seed_builder()
    for _ in range(n_moves):
        move = rng.choice([subdivide_move, split_move])
        grown = move(S, rng)
        if grown is not None:
            S = grown
    return S


def random_corpus(seed, count, max_moves=4, seeds=None):
    rng = random.Random(seed)
    builders = seeds if seeds is not None else all_seed_builders()
    return [
        random_complex(rng, rng.choice(builders), rng.randrange(max_moves + 1))
        for _ in range(count)
    ]


# ---- matchings -----------------------------------------------------------


def line_field_pairs(S):
    """All (vertex, edge) pairs available to a line-field matching."""
    out = set()
    for e, (t, h) in S.edges.items():
        out.add((t, e))
        out.add((h, e))
    return sorted(out)


def vector_field_pairs(S):
    """All incident (lower, upper) cell pairs available to a vector field."""
    return sorted(set(hasse_diagram(S).incidences))


def all_matchings(pairs):
    """Every subset of `pairs` in which no cell appears twice."""
    pairs = sorted(set(pairs))
    chosen = []

    def rec(i, used):
        if i == len(pairs):
            yield frozenset(chosen)
            return
        yield from rec(i + 1, used)
        a, b = pairs[i]
        if a not in used and b not in used:
            chosen.append(pairs[i])
            yield from rec(i + 1, used | {a, b})
            chosen.pop()

    yield from rec(0, frozenset())


def sample_matching(pairs, rng, keep=0.5):
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    used = set()
    out = []
    for a, b in shuffled:
        if a in used or b in used or rng.random() > keep:
            continue
        used.add(a)
        used.add(b)
        out.append((a, b))
    return frozenset(out)


def forest_field(S, rng, keep):
    """An acyclic field: a random spanning tree of the 1-skeleton, each
    non-root vertex matched to the edge towards its parent, with each pair
    kept with probability `keep`."""
    parent = {v: v for v in S.vertices}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adjacent = {v: [] for v in S.vertices}
    edges = sorted(S.edges)
    rng.shuffle(edges)
    for e in edges:
        tail, head = S.edges[e]
        if root(tail) != root(head):
            parent[root(tail)] = root(head)
            adjacent[tail].append((head, e))
            adjacent[head].append((tail, e))
    pairs = set()
    start = min(S.vertices)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for x, e in adjacent[u]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
                if rng.random() < keep:
                    pairs.add((x, e))
    return LineField(S, frozenset(pairs))


def tree_cotree(S, tree, first_critical=None):
    """Gradient vector field pairs of a vertex forest plus a dual tree.

    After Lewiner, Lopes and Tavares, Optimal discrete Morse functions for
    2-manifolds (2003): each vertex in `tree` (vertex -> edge towards its
    parent) pairs with its edge, and a breadth-first tree, from the least
    face, of the dual graph on the remaining edges but `first_critical`
    pairs every other face with the edge towards its parent face.  Returns
    None when that dual graph is disconnected.
    """
    tree_edges = set(tree.values())
    dual = {f: [] for f in S.faces}
    for e, ((f, _i), (g, _j)) in sorted(S.occurrence_index.items()):
        if e not in tree_edges and e != first_critical and f != g:
            dual[f].append((e, g))
            dual[g].append((e, f))
    root = min(S.faces)
    seen = {root}
    pairs = set(tree.items())
    queue = deque([root])
    while queue:
        f = queue.popleft()
        for e, g in dual[f]:
            if g not in seen:
                seen.add(g)
                pairs.add((e, g))
                queue.append(g)
    return frozenset(pairs) if len(seen) == len(S.faces) else None


def snake(rows, cols):
    """grid_torus(rows, cols) and a snake through every vertex, left to
    right on even rows and back on odd ones: (complex, tree, head), where
    the tree maps each vertex but the last to its edge towards the next
    and `head` is the first vertex."""
    S = grid_torus(rows, cols)
    right, left, down = {}, {}, {}
    for e, (tail, head) in S.edges.items():
        if e.startswith("h"):
            right[tail] = (e, head)
            left[head] = (e, tail)
        else:
            down[tail] = (e, head)
    head = v = min(S.vertices)
    tree = {}
    for r in range(rows):
        for c in range(cols):
            if c < cols - 1:
                e, nxt = (right if r % 2 == 0 else left)[v]
            elif r < rows - 1:
                e, nxt = down[v]
            else:
                break
            tree[v] = e
            v = nxt
    return S, tree, head


def serpentine_line_field(rows, cols):
    """The snake of `snake(rows, cols)` as a line field: one gradient chain
    through every vertex, so the separatrix paths total about
    faces x vertices / 2 cells."""
    S, tree, _head = snake(rows, cols)
    return LineField(S, frozenset(tree.items()))


def serpentine_torus(rows, cols):
    """A tree-cotree vector field on grid_torus(rows, cols) whose vertex
    tree is the snake of `snake(rows, cols)`.  An edge at the snake's head
    stays critical, so the gradient path from it visits every vertex.
    Returns (field, that edge).
    """
    S, tree, head = snake(rows, cols)
    for e in sorted(S.edges):
        if head in S.edges[e] and e not in tree.values():
            pairs = tree_cotree(S, tree, first_critical=e)
            if pairs is not None:
                return VectorField(S, pairs), e
    raise AssertionError(f"no admissible critical edge at {head}")
