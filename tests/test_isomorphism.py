"""Isomorphism search, including the sign-sensitive cases."""

import random
from itertools import permutations
from types import SimpleNamespace

import pytest
import support
from support import corners
from linefields import isomorphism
from linefields.errors import InvalidComplexError
from linefields.isomorphism import (
    complexes_isomorphic,
    isomorphisms,
    line_fields_isomorphic,
)
from linefields.surface import SurfaceComplex, _canonical_rotation, reversed_walk


def renamed(S, suffix):
    return SurfaceComplex(
        vertices=frozenset(v + suffix for v in S.vertices),
        edges={e + suffix: (t + suffix, h + suffix) for e, (t, h) in S.edges.items()},
        faces={
            f + suffix: tuple((s, e + suffix) for s, e in walk)
            for f, walk in S.faces.items()
        },
    )


def test_identity_isomorphism():
    S = support.tetra()
    iso = complexes_isomorphic(S, S)
    assert iso is not None
    assert iso["vertices"]["v1"] in S.vertices


def test_renamed_complexes_isomorphic():
    for build in support.all_seed_builders():
        S = build()
        iso = complexes_isomorphic(S, renamed(S, "_r"))
        assert iso is not None, S.name


def test_torus_and_klein_not_isomorphic():
    """Same counts everywhere; only occurrence signs distinguish them."""
    assert complexes_isomorphic(support.torus_one(), support.klein()) is None


def test_proj_plane_and_pinched_monogon_sphere_not_isomorphic():
    pinched = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v")},
        faces={"F": support.w("+a -a")},
    )
    assert complexes_isomorphic(support.proj_plane(), pinched) is None


def test_sphere_triangulations_with_different_shapes_not_isomorphic():
    assert complexes_isomorphic(support.tetra(), support.theta_sphere()) is None


def test_vertex_map_pinning():
    S = support.slit_sphere()
    T = renamed(S, "_r")
    assert complexes_isomorphic(S, T, vertex_map={"u": "u_r", "w": "w_r"}) is not None
    assert complexes_isomorphic(S, T, vertex_map={"u": "w_r", "w": "u_r"}) is not None
    assert complexes_isomorphic(S, T, vertex_map={"u": "u_r", "w": "u_r"}) is None


def test_tetra_is_self_dual():
    assert complexes_isomorphic(support.tetra(), support.tetra().dual()) is not None


def test_proj_plane_is_self_dual():
    assert complexes_isomorphic(support.proj_plane(), support.proj_plane().dual()) is not None


def test_double_dual_isomorphic_via_identity_on_vertices():
    for S in support.random_corpus(seed=11, count=15, max_moves=3):
        identity = {v: v for v in S.vertices}
        assert complexes_isomorphic(S, S.dual().dual(), vertex_map=identity) is not None


def test_automorphisms_of_torus_include_loop_swap():
    S = support.torus_one()
    swaps = [
        iso
        for iso in isomorphisms(S, S)
        if iso["edges"] == {"a": "b", "b": "a"}
    ]
    assert swaps, "expected an automorphism exchanging the two loops"


def test_line_field_isomorphism_respects_matching():
    S = support.torus_one()
    L1 = SimpleNamespace(complex=S, matching=frozenset({("v", "a")}))
    L2 = SimpleNamespace(complex=S, matching=frozenset({("v", "b")}))
    L3 = SimpleNamespace(complex=S, matching=frozenset())
    assert line_fields_isomorphic(L1, L2) is not None
    assert line_fields_isomorphic(L1, L3) is None


def test_matching_isomorphism_on_renamed_tetra():
    S = support.tetra()
    T = renamed(S, "_r")
    rng = random.Random(9)
    for _ in range(10):
        M = support.sample_matching(support.line_field_pairs(S), rng)
        L1 = SimpleNamespace(complex=S, matching=M)
        L2 = SimpleNamespace(
            complex=T, matching=frozenset((v + "_r", e + "_r") for v, e in M)
        )
        assert line_fields_isomorphic(L1, L2) is not None


# ---- regressions: sizes the backtracking search could not reach ----------


def shuffled(S, rng):
    """A copy of S with its identifiers permuted within each dimension,
    random edges flipped (occurrence signs negated to match) and random
    walks reversed."""
    names = {}
    for cells in (S.vertices, S.edges, S.faces):
        old = sorted(cells)
        new = old[:]
        rng.shuffle(new)
        names.update(zip(old, new))
    flip = {e: rng.choice((1, -1)) for e in S.edges}
    edges = {names[e]: (t, h)[:: flip[e]] for e, (t, h) in S.edges.items()}
    edges = {e: (names[t], names[h]) for e, (t, h) in edges.items()}
    faces = {}
    for f, walk in S.faces.items():
        walk = tuple((s * flip[e], names[e]) for s, e in walk)
        faces[names[f]] = reversed_walk(walk) if rng.random() < 0.5 else walk
    return SurfaceComplex(frozenset(names[v] for v in S.vertices), edges, faces)


def test_large_torus_pinned_at_default_recursion_limit():
    S = support.grid_torus(12, 12)
    iso = complexes_isomorphic(S, S, vertex_map={v: v for v in S.vertices})
    assert iso is not None
    assert iso["edges"] == {e: e for e in S.edges}
    assert iso["faces"] == {f: f for f in S.faces}


def test_shuffled_torus_isomorphic_without_pins():
    S = support.grid_torus(8, 8)
    assert complexes_isomorphic(S, shuffled(S, random.Random(3))) is not None


def test_torus_and_klein_grids_not_isomorphic(monkeypatch):
    # Orientability refuses the pair before any alignment is propagated.
    calls = []
    original = isomorphism._propagate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(isomorphism, "_propagate", counting)
    for n in (8, 24):
        assert complexes_isomorphic(support.grid_torus(n, n), support.grid_klein(n, n)) is None
        assert complexes_isomorphic(support.grid_klein(n, n), support.grid_torus(n, n)) is None
    assert calls == []
    assert complexes_isomorphic(support.grid_klein(8, 8), support.grid_klein(8, 8)) is not None
    assert calls


def test_tori_alike_in_every_count_not_isomorphic():
    # Counts, orientability, face lengths and degrees agree, so every one of
    # the 2k|F| alignments is propagated until it conflicts.
    assert complexes_isomorphic(support.grid_torus(6, 24), support.grid_torus(12, 12)) is None


def test_orientability_of_named_complexes():
    non_orientable = {"proj_plane", "klein", "klein3x4"}
    for S in [build() for build in support.all_seed_builders()] + [
        support.grid_torus(3, 4),
        support.grid_klein(3, 4),
    ]:
        assert isomorphism._orientable(S) is (S.name not in non_orientable), S.name
    assert isomorphism._orientable(support.pinched_spheres()) is None


def test_double_cover_of_a_pinched_part_not_isomorphic():
    """Every slot of the sphere lands consistently on the projective plane
    of the pinched target, two faces to one; only injectivity refuses."""
    sphere = SurfaceComplex(
        vertices=frozenset({"x", "y"}),
        edges={"a1": ("x", "y"), "a2": ("y", "x")},
        faces={"F1": support.w("+a1 +a2"), "F2": support.w("+a2 +a1")},
    )
    pinched = SurfaceComplex(
        vertices=frozenset({"v", "w"}),
        edges={"a": ("v", "v"), "e": ("v", "w")},
        faces={"G": support.w("+a +a"), "H": support.w("+e -e")},
    )
    assert sphere.validate() == pinched.validate() == []
    assert complexes_isomorphic(sphere, pinched) is None


def test_invalid_disconnected_or_pinched_input_rejected():
    S = support.tetra()
    T = renamed(S, "_r")
    apart = SurfaceComplex(S.vertices | T.vertices, {**S.edges, **T.edges}, {**S.faces, **T.faces})
    for pair in ((apart, apart), (S, apart), (apart, S)):
        with pytest.raises(InvalidComplexError, match="disconnected"):
            complexes_isomorphic(*pair)
    # Propagation pairs each edge's two occurrences; an unused edge would
    # be left out of the map.
    unused = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"e": ("v", "v"), "g": ("v", "v")},
        faces={"F": support.w("+e +e")},
    )
    with pytest.raises(InvalidComplexError, match="edge g occurs 0 time"):
        complexes_isomorphic(unused, unused)
    pinched = support.pinched_spheres()
    with pytest.raises(InvalidComplexError, match="not joined through edges"):
        complexes_isomorphic(pinched, pinched)


# ---- differential check against the backtracking search ------------------
#
# A copy of the earlier search: backtracking over vertex images with
# degree signatures to prune, then over edge images within parallel
# classes and their signs, then over face images.  It is exponential and
# recurses once per cell, so it only runs on small complexes here.


def _reference_vertex_signatures(S):
    deg = {v: 0 for v in S.vertices}
    loops = {v: 0 for v in S.vertices}
    for _e, (t, h) in S.edges.items():
        deg[t] += 1
        deg[h] += 1
        if t == h:
            loops[t] += 1
    corner_lengths = {v: [] for v in S.vertices}
    for v, f, _i in corners(S):
        corner_lengths[v].append(len(S.faces[f]))
    return {
        v: (deg[v], loops[v], tuple(sorted(corner_lengths[v]))) for v in S.vertices
    }


def _reference_walk_variants(walk):
    return (_canonical_rotation(walk), _canonical_rotation(reversed_walk(walk)))


def reference_isomorphisms(S1, S2, vertex_map=None):
    if (
        len(S1.vertices) != len(S2.vertices)
        or len(S1.edges) != len(S2.edges)
        or len(S1.faces) != len(S2.faces)
    ):
        return
    lengths1 = sorted(len(walk) for walk in S1.faces.values())
    lengths2 = sorted(len(walk) for walk in S2.faces.values())
    if lengths1 != lengths2:
        return
    sig1 = _reference_vertex_signatures(S1)
    sig2 = _reference_vertex_signatures(S2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return
    pinned = dict(vertex_map) if vertex_map else {}
    for v, img in pinned.items():
        if v not in S1.vertices or img not in S2.vertices:
            return

    order = sorted(S1.vertices, key=lambda v: (v not in pinned, -sig1[v][0], v))
    face_walks2 = {f: S2.faces[f] for f in S2.faces}

    def vertex_stage(i, phi, used):
        if i == len(order):
            yield from edge_stage(dict(phi))
            return
        v = order[i]
        if v in pinned:
            candidates = [pinned[v]]
        else:
            candidates = [u for u in sorted(S2.vertices) if sig2[u] == sig1[v]]
        for u in candidates:
            if u in used or sig2.get(u) != sig1[v]:
                continue
            phi[v] = u
            yield from vertex_stage(i + 1, phi, used | {u})
            del phi[v]

    def edge_stage(phi):
        groups1 = {}
        for e, (t, h) in S1.edges.items():
            groups1.setdefault(frozenset({t, h}), []).append(e)
        groups2 = {}
        for e, (t, h) in S2.edges.items():
            groups2.setdefault(frozenset({t, h}), []).append(e)
        keys = sorted(groups1, key=sorted)
        targets = []
        for k in keys:
            img = frozenset(phi[x] for x in k)
            if img not in groups2 or len(groups2[img]) != len(groups1[k]):
                return
            targets.append(groups2[img])

        def group_stage(gi, edge_map, signs):
            if gi == len(keys):
                yield from face_stage(phi, dict(edge_map), dict(signs))
                return
            sources = sorted(groups1[keys[gi]])
            for perm in permutations(sorted(targets[gi])):
                assignments = list(zip(sources, perm))
                yield from sign_stage(gi, assignments, 0, edge_map, signs)

        def sign_stage(gi, assignments, ai, edge_map, signs):
            if ai == len(assignments):
                yield from group_stage(gi + 1, edge_map, signs)
                return
            e1, e2 = assignments[ai]
            t1, h1 = S1.edges[e1]
            t2, h2 = S2.edges[e2]
            options = []
            if (phi[t1], phi[h1]) == (t2, h2):
                options.append(1)
            if (phi[t1], phi[h1]) == (h2, t2):
                options.append(-1)
            for s in options:
                edge_map[e1] = e2
                signs[e1] = s
                yield from sign_stage(gi, assignments, ai + 1, edge_map, signs)
                del edge_map[e1]
                del signs[e1]

        yield from group_stage(0, {}, {})

    def face_stage(phi, edge_map, signs):
        mapped = {}
        for f, walk in S1.faces.items():
            image = tuple((s * signs[e], edge_map[e]) for s, e in walk)
            mapped[f] = _reference_walk_variants(image)

        faces1 = sorted(S1.faces, key=lambda f: (-len(S1.faces[f]), f))

        def assign(fi, face_map, used):
            if fi == len(faces1):
                yield {
                    "vertices": dict(phi),
                    "edges": dict(edge_map),
                    "signs": dict(signs),
                    "faces": dict(face_map),
                }
                return
            f = faces1[fi]
            fwd, rev = mapped[f]
            for g in sorted(face_walks2):
                if g in used:
                    continue
                if face_walks2[g] == fwd or face_walks2[g] == rev:
                    face_map[f] = g
                    yield from assign(fi + 1, face_map, used | {g})
                    del face_map[f]

        yield from assign(0, {}, frozenset())

    yield from vertex_stage(0, {}, frozenset())


def _result_keys(results):
    """Each result dict as a hashable key, in yield order."""
    keys = ("vertices", "edges", "signs", "faces")
    return [tuple(tuple(sorted(iso[k].items())) for k in keys) for iso in results]


def test_propagation_matches_backtracking_search():
    rng = random.Random(5)
    pinched_monogon = SurfaceComplex(
        vertices=frozenset({"v"}), edges={"a": ("v", "v")}, faces={"F": support.w("+a -a")}
    )
    lone_vertex = SurfaceComplex(vertices=frozenset({"v"}), edges={}, faces={})
    inputs = [build() for build in support.all_seed_builders()]
    inputs += support.random_corpus(seed=17, count=40, max_moves=3)
    inputs += [pinched_monogon, lone_vertex]
    pairs = results = 0
    for S in inputs:
        targets = [S, shuffled(S, rng)]
        if S.faces and all(len(c) == 1 for c in S.vertex_link_cycles().values()):
            targets.append(S.dual())  # the lone vertex and the monogon have none
        for T in targets:
            pins = [None] + [{min(S.vertices): u} for u in sorted(T.vertices)]
            for pin in pins:
                got = _result_keys(isomorphisms(S, T, pin))
                want = _result_keys(reference_isomorphisms(S, T, pin))
                assert len(set(got)) == len(got), (S.name, pin)
                assert set(got) == set(want), (S.name, pin)
                pairs += 1
                results += len(got)
    assert pairs >= 500 and results >= 1500
