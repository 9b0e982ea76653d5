"""Combinatorial isomorphism testing for complexes and fields on them.

The encoding fixes choices an isomorphism must be free to undo: each edge
has an arbitrary direction (so edges map together with a sign), and each
boundary walk an arbitrary starting point and direction (so faces align up
to rotation and reversal).  Signs matter: two complexes can agree in every
count and still differ only in how occurrence signs line up.

On a connected surface, aligning one face fixes the whole map, as in the
dart propagation behind isomorphism of combinatorial maps (Gosselin,
Damiand and Solnon, Efficient search of combinatorial maps using
signatures, TCS 2011).  The search aligns the least face of S1 with every
face of S2 of the same length, at every start position and in both
directions, and spreads each alignment breadth first across shared
edges, so a candidate is dropped at a conflict near its start.  There is no
backtracking: at most 2k|F| candidates, k the length of that face, each
propagated in time linear in the size of S1.  A pair that differs in
orientability, found in linear time first, gets no candidate at all.
"""

from __future__ import annotations

from collections import deque

from .errors import InvalidComplexError


def _propagate(S1, S2, f0, start, pinned):
    """The isomorphism aligning position i of face f0 with position
    j + d*i of face g, where start = (g, j, d), or None on a conflict."""
    vertices, edges, signs = {}, {}, {}
    align = {f0: start}
    work = deque([f0])
    while work:
        f = work.popleft()
        g, j, d = align[f]
        walk, target = S1.faces[f], S2.faces[g]
        n = len(walk)
        if len(target) != n:
            return None
        for p, (s, e) in enumerate(walk):
            # Read in direction d, occurrence (s, e) lands on (d*s2, e2),
            # so e maps to e2 with sign d*s*s2.
            q = (j + d * p) % n
            s2, e2 = target[q]
            sign = d * s * s2
            if edges.setdefault(e, e2) != e2 or signs.setdefault(e, sign) != sign:
                return None
            tail, head = S2.edges[e2]
            for v, u in zip(S1.edges[e], (tail, head) if sign > 0 else (head, tail)):
                if vertices.setdefault(v, u) != u or pinned.get(v, u) != u:
                    return None
            # e's other occurrence lands on e2's other occurrence, which
            # fixes the alignment of the face holding it.  A face reached
            # again with another alignment fails a slot check when it is
            # processed, or the face map is not injective.
            fo, po = S1.opposite[(f, p)]
            go, qo = S2.opposite[(g, q)]
            if fo not in align:
                do = sign * S1.faces[fo][po][0] * S2.faces[go][qo][0]
                align[fo] = (go, (qo - do * po) % len(S1.faces[fo]), do)
                work.append(fo)
    if len(align) < len(S1.faces):
        raise InvalidComplexError(
            f"cannot search isomorphisms of {S1.name}: its faces are not joined through edges"
        )
    faces = {f: g for f, (g, _j, _d) in align.items()}
    if any(len(set(m.values())) < len(m) for m in (vertices, edges, faces)):
        return None
    return {"vertices": vertices, "edges": edges, "signs": signs, "faces": faces}


def _orientable(S):
    """Whether the faces of S can be directed to cross each edge once each
    way: a two-colouring across shared edges from the least face.  None
    when faces meet the rest only at pinched vertices, which the
    propagation reports."""
    f0 = min(S.faces)
    direction = {f0: 1}
    work = [f0]
    consistent = True
    while work:
        f = work.pop()
        for p, (s, _e) in enumerate(S.faces[f]):
            g, q = S.opposite[(f, p)]
            d = -direction[f] * s * S.faces[g][q][0]
            if g not in direction:
                direction[g] = d
                work.append(g)
            elif direction[g] != d:
                consistent = False
    return consistent if len(direction) == len(S.faces) else None


def isomorphisms(S1, S2, vertex_map=None):
    """Yield isomorphisms from S1 to S2, each once.

    Each result is {"vertices", "edges", "signs", "faces"}: three cell
    bijections plus the per-edge sign (+1 keeps the edge's direction).
    `vertex_map` pins chosen vertex images; the search fills in the rest.
    Both complexes must pass validate(), which makes them connected;
    InvalidComplexError otherwise.  So does a propagation that ends with
    faces of S1 unreached: they meet the rest only at pinched vertices.
    """
    for S in (S1, S2):
        problems = S.validate()
        if problems:
            raise InvalidComplexError(f"cannot search isomorphisms of {S.name}: {problems[0]}")
    sizes = [(len(S.vertices), len(S.edges), len(S.faces)) for S in (S1, S2)]
    if sizes[0] != sizes[1]:
        return
    pinned = dict(vertex_map) if vertex_map else {}
    if not all(v in S1.vertices and u in S2.vertices for v, u in pinned.items()):
        return
    if not S1.faces:  # valid without faces: a lone vertex (or nothing)
        vertices = dict(zip(S1.vertices, S2.vertices))
        if pinned.items() <= vertices.items():
            yield {"vertices": vertices, "edges": {}, "signs": {}, "faces": {}}
        return
    orientable = _orientable(S1)
    if orientable is not None and orientable != _orientable(S2):
        return
    f0 = min(S1.faces)
    seen = set()
    for g in sorted(S2.faces):
        for j in range(len(S1.faces[f0])):
            for d in (1, -1):
                iso = _propagate(S1, S2, f0, (g, j, d), pinned)
                if iso is None:
                    continue
                # A walk with symmetries gives the same map from several
                # alignments.
                key = tuple(frozenset(m.items()) for m in iso.values())
                if key not in seen:
                    seen.add(key)
                    yield iso


def complexes_isomorphic(S1, S2, vertex_map=None):
    """First isomorphism found, or None."""
    for iso in isomorphisms(S1, S2, vertex_map):
        return iso
    return None


def _cell_image(iso, S1, cell):
    if cell in S1.vertices:
        return iso["vertices"][cell]
    if cell in S1.edges:
        return iso["edges"][cell]
    return iso["faces"][cell]


def line_fields_isomorphic(F1, F2, vertex_map=None):
    """Isomorphism of the underlying complexes carrying one matching to the
    other, or None.  Serves line fields and vector fields alike."""
    S1 = F1.complex
    if len(F1.matching) != len(F2.matching):
        return None
    want = set(F2.matching)
    for iso in isomorphisms(S1, F2.complex, vertex_map):
        image = {
            (_cell_image(iso, S1, a), _cell_image(iso, S1, b)) for a, b in F1.matching
        }
        if image == want:
            return iso
    return None
