"""Seeded surface meshes and fields for the benchmark.

Meshes are built once from raw cell dictionaries, never by repeated
library surgery, so set-up stays cheap at every size.  Identifiers carry
separators (`v_3_12`), so no two grid cells can share a name at any size.

Every field generator returns a frozenset of pairs in the orientation the
native file format writes: (vertex, edge) for line fields and
(lower, upper) for vector fields.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass


@dataclass
class Mesh:
    name: str
    vertices: list[str]
    edges: dict[str, tuple[str, str]]
    faces: dict[str, tuple[tuple[int, str], ...]]
    chi: int
    snake: list[str] | None = None  # Hamiltonian vertex path, grid meshes only
    off: str | None = None  # OFF text of triangle meshes

    @property
    def cells(self) -> int:
        return len(self.vertices) + len(self.edges) + len(self.faces)


# ---- meshes ---------------------------------------------------------------

GRID_KINDS = {
    # kind: (top side glued reversed, right side glued reversed, chi)
    "torus": (False, False, 0),
    "klein": (False, True, 0),
    "rp2": (True, True, 1),
}


def grid(kind: str, n: int, m: int | None = None) -> Mesh:
    """An n-by-m square grid on the torus, Klein bottle or projective plane.

    The rectangle [0, n] x [0, m] has its top side glued to the bottom and
    its right side to the left, each straight or reversed.  Points and
    segments on the top and right sides are replaced by their images, so
    one gluing step reaches a canonical cell.
    """
    m = n if m is None else m
    if min(n, m) < 3:
        raise ValueError("grid meshes need both sides >= 3")
    flip_top, flip_right, chi = GRID_KINDS[kind]

    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(p):
        while parent.get(p, p) != p:
            p = parent[p]
        return p

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for x in range(n + 1):
        union((x, m), (n - x if flip_top else x, 0))
    for y in range(m + 1):
        union((n, y), (0, m - y if flip_right else y))
    vid = {}
    for x in range(n + 1):
        for y in range(m + 1):
            r = find((x, y))
            vid[(x, y)] = f"v_{r[0]}_{r[1]}"

    def hseg(x, y):  # (x, y) -> (x + 1, y) as a signed canonical edge
        if y == m:
            return (-1, f"a_{n - x - 1}_0") if flip_top else (1, f"a_{x}_0")
        return (1, f"a_{x}_{y}")

    def vseg(x, y):  # (x, y) -> (x, y + 1)
        if x == n:
            return (-1, f"b_0_{m - y - 1}") if flip_right else (1, f"b_0_{y}")
        return (1, f"b_{x}_{y}")

    edges = {}
    for x in range(n):
        for y in range(m):
            edges[f"a_{x}_{y}"] = (vid[(x, y)], vid[(x + 1, y)])
            edges[f"b_{x}_{y}"] = (vid[(x, y)], vid[(x, y + 1)])
    faces = {}
    for x in range(n):
        for y in range(m):
            walk = []
            for sign, (s, e) in (
                (1, hseg(x, y)),
                (1, vseg(x + 1, y)),
                (-1, hseg(x, y + 1)),
                (-1, vseg(x, y)),
            ):
                walk.append((sign * s, e))
            faces[f"f_{x}_{y}"] = tuple(walk)
    vertices = sorted(set(vid.values()))
    # Boustrophedon over the interior grid: consecutive points are joined by
    # an unglued segment, and on the torus and Klein bottle every vertex is
    # visited once.
    snake = None
    if kind != "rp2":
        snake = []
        for y in range(m):
            xs = range(n) if y % 2 == 0 else range(n - 1, -1, -1)
            snake.extend(vid[(x, y)] for x in xs)
    return Mesh(f"{kind}{n}x{m}", vertices, edges, faces, chi, snake)


def icosahedron_triangles(ico) -> list[tuple[int, int, int]]:
    """Vertex-index triangles of the complex parse_off returns."""
    out = []
    for f in sorted(ico.faces, key=lambda s: int(s[1:])):
        corners = [ico.occ_source(o) for o in ico.faces[f]]
        out.append(tuple(int(v[1:]) for v in corners))
    return out


def sphere(triangles: list[tuple[int, int, int]], n_vertices: int, levels: int) -> Mesh:
    """Subdivide a triangulated sphere 4-to-1, `levels` times."""
    for _ in range(levels):
        mid: dict[tuple[int, int], int] = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in mid:
                mid[key] = n_vertices + len(mid)
            return mid[key]

        finer = []
        for a, b, c in triangles:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            finer += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        n_vertices += len(mid)
        triangles = finer
    return triangle_mesh(f"sphere{len(triangles)}", triangles, n_vertices, chi=2)


def triangle_mesh(name, triangles, n_vertices, chi) -> Mesh:
    edges: dict[str, tuple[str, str]] = {}
    faces = {}
    for k, tri in enumerate(triangles):
        walk = []
        for a, b in zip(tri, tri[1:] + tri[:1]):
            lo, hi = min(a, b), max(a, b)
            eid = f"e_{lo}_{hi}"
            edges[eid] = (f"v_{lo}", f"v_{hi}")
            walk.append((1 if a == lo else -1, eid))
        faces[f"t_{k}"] = tuple(walk)
    lines = ["OFF", f"{n_vertices} {len(triangles)} {len(edges)}"]
    lines += ["0 0 0"] * n_vertices
    lines += [f"3 {a} {b} {c}" for a, b, c in triangles]
    vertices = [f"v_{i}" for i in range(n_vertices)]
    return Mesh(name, vertices, edges, faces, chi, off="\n".join(lines) + "\n")


def check_mesh(mesh: Mesh, construct) -> None:
    """Counts, the library's validate() and the Euler characteristic."""
    V, E, F = len(mesh.vertices), len(mesh.edges), len(mesh.faces)
    walk_total = sum(len(w) for w in mesh.faces.values())
    if walk_total != 2 * E:
        raise AssertionError(f"{mesh.name}: {walk_total} occurrences for {E} edges")
    if len(set(mesh.vertices)) != V:
        raise AssertionError(f"{mesh.name}: repeated vertex ids")
    if V - E + F != mesh.chi:
        raise AssertionError(f"{mesh.name}: chi {V - E + F}, expected {mesh.chi}")
    problems = construct(mesh).validate()
    if problems:
        raise AssertionError(f"{mesh.name}: {problems[0]}")


# ---- trees and fields ------------------------------------------------------


def adjacency(mesh: Mesh) -> dict[str, list[tuple[str, str]]]:
    """Vertex -> [(edge, other endpoint)], loops skipped, in edge-id order."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in mesh.vertices}
    for e in sorted(mesh.edges):
        t, h = mesh.edges[e]
        if t != h:
            adj[t].append((e, h))
            adj[h].append((e, t))
    return adj


def bfs_tree(mesh: Mesh, root: str) -> dict[str, str]:
    """Vertex -> edge towards its parent, for every vertex but the root."""
    adj = adjacency(mesh)
    up: dict[str, str] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for e, w in adj[u]:
            if w not in seen:
                seen.add(w)
                up[w] = e
                queue.append(w)
    return up


def dfs_tree(mesh: Mesh, rng: random.Random) -> dict[str, str]:
    """A random depth-first spanning tree: long gradient paths."""
    adj = adjacency(mesh)
    root = rng.choice(mesh.vertices)
    up: dict[str, str] = {}
    seen = {root}
    stack = [(root, iter(rng.sample(adj[root], len(adj[root]))))]
    while stack:
        u, options = stack[-1]
        for e, w in options:
            if w not in seen:
                seen.add(w)
                up[w] = e
                stack.append((w, iter(rng.sample(adj[w], len(adj[w])))))
                break
        else:
            stack.pop()
    return up


def snake_tree(mesh: Mesh) -> dict[str, str]:
    """The serpentine tree: each vertex flows to the next along the snake."""
    between = {}
    for e, (t, h) in mesh.edges.items():
        between[(t, h)] = between[(h, t)] = e
    path = mesh.snake
    return {path[i]: between[(path[i], path[i + 1])] for i in range(len(path) - 1)}


def random_forest(mesh: Mesh, rng: random.Random, keep: float) -> dict[str, str]:
    """A random DFS tree with each tree edge kept with probability `keep`."""
    return {v: e for v, e in dfs_tree(mesh, rng).items() if rng.random() < keep}


def line_field(tree: dict[str, str]) -> frozenset:
    return frozenset(tree.items())


def edge_faces(mesh: Mesh) -> dict[str, list[str]]:
    """Edge -> the faces of its two occurrences (a face twice if it repeats)."""
    out: dict[str, list[str]] = {e: [] for e in mesh.edges}
    for f, walk in mesh.faces.items():
        for _s, e in walk:
            out[e].append(f)
    return out


def tree_cotree(mesh: Mesh, tree: dict[str, str], first_critical: str | None = None) -> frozenset:
    """Gradient vector field of a spanning tree plus a dual spanning tree.

    Lewiner, Lopes and Tavares, Optimal discrete Morse functions for
    2-manifolds (2003): vertices pair with their tree edges, faces with the
    dual-tree edge towards their parent face, and the 2 - chi edges left
    over stay critical beside one critical vertex and one critical face.
    `first_critical`, when given, is kept out of the dual tree.
    """
    tree_edges = set(tree.values())
    incident = edge_faces(mesh)
    dual: dict[str, list[tuple[str, str]]] = {f: [] for f in mesh.faces}
    for e in sorted(mesh.edges):
        if e in tree_edges or e == first_critical:
            continue
        f, g = incident[e]
        if f != g:
            dual[f].append((e, g))
            dual[g].append((e, f))
    root = min(mesh.faces)
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
    if len(seen) != len(mesh.faces):
        raise ValueError(f"{mesh.name}: dual graph disconnected without {first_critical}")
    matched = {c for p in pairs for c in p}
    by_dim = tuple(
        sum(1 for c in cells if c not in matched)
        for cells in (mesh.vertices, mesh.edges, mesh.faces)
    )
    if by_dim != (1, 2 - mesh.chi, 1):
        raise AssertionError(f"{mesh.name}: tree-cotree critical cells {by_dim}")
    return frozenset(pairs)


def serpentine(mesh: Mesh) -> frozenset:
    """Tree-cotree field on the snake tree whose gradient path from a
    critical edge runs through every vertex: the edge leaving the snake's
    first vertex stays critical."""
    tree = snake_tree(mesh)
    tree_edges = set(tree.values())
    start = mesh.snake[0]
    for e, _w in adjacency(mesh)[start]:
        if e in tree_edges:
            continue
        try:
            return tree_cotree(mesh, tree, first_critical=e)
        except ValueError:
            continue
    raise AssertionError(f"{mesh.name}: no admissible critical edge at the snake start")


def random_line_matching(mesh: Mesh, rng: random.Random, keep: float) -> frozenset:
    """Seeded partial vertex-edge matching; may contain closed paths."""
    pairs = [(v, e) for e, (t, h) in mesh.edges.items() for v in {t, h}]
    pairs.sort()
    rng.shuffle(pairs)
    used = set()
    out = set()
    for v, e in pairs:
        if v in used or e in used or rng.random() > keep:
            continue
        used.update((v, e))
        out.add((v, e))
    return frozenset(out)


def random_vector_matching(mesh: Mesh, rng: random.Random, keep: float) -> frozenset:
    """Seeded partial cell matching; may contain closed X-paths."""
    pairs = {(v, e) for e, (t, h) in mesh.edges.items() for v in (t, h)}
    pairs |= {(e, f) for f, walk in mesh.faces.items() for _s, e in walk}
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    used = set()
    out = set()
    for lo, up in pairs:
        if lo in used or up in used or rng.random() > keep:
            continue
        used.update((lo, up))
        out.add((lo, up))
    return frozenset(out)


def emit(mesh: Mesh, keyword: str, pairs) -> str:
    """The mesh and matching in the native format, lines in sorted order."""
    lines = [f"surface {mesh.name}"]
    lines += [f"vertex {v}" for v in sorted(mesh.vertices)]
    lines += [f"edge {e} {t} {h}" for e, (t, h) in sorted(mesh.edges.items())]
    for f in sorted(mesh.faces):
        occs = " ".join(("+" if s > 0 else "-") + e for s, e in mesh.faces[f])
        lines.append(f"face {f} walk {occs}")
    lines += [f"{keyword} {a} {b}" for a, b in sorted(pairs)]
    return "\n".join(lines) + "\n"
