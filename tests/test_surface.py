"""Construction, validation, duality, and walk surgery on surface complexes."""

import random

import pytest

import support
from support import corners, hasse_diagram, subdivide_edge, w
from linefields.errors import DegenerateOperationError, InvalidComplexError
from linefields.radial import radial_decomposition
from linefields.surface import (
    SurfaceComplex,
    _canonical_rotation,
    delete_edge_merge_faces,
    fresh_id,
    occ_text,
    split_face,
)


def renamed(S, suffix):
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


# ---- construction --------------------------------------------------------


def test_unknown_vertex_rejected():
    with pytest.raises(InvalidComplexError):
        SurfaceComplex(vertices=frozenset({"v"}), edges={"e": ("v", "x")}, faces={})


def test_unknown_edge_rejected():
    with pytest.raises(InvalidComplexError):
        SurfaceComplex(vertices=frozenset({"v"}), edges={}, faces={"F": w("+e")})


def test_bad_sign_rejected():
    with pytest.raises(InvalidComplexError):
        SurfaceComplex(
            vertices=frozenset({"v"}), edges={"e": ("v", "v")}, faces={"F": ((2, "e"),)}
        )


def test_identifier_collision_rejected():
    with pytest.raises(InvalidComplexError):
        SurfaceComplex(vertices=frozenset({"x"}), edges={"x": ("x", "x")}, faces={})


def test_walks_canonically_rotated():
    """Any rotation of a boundary walk constructs the same complex."""
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("-a -b +a +b")},
    )
    assert S.faces["F"] == w("+a +b -a -b")
    assert S == support.torus_one()


def reference_rotation(walk):
    """The least rotation by comparing every rotation in full, O(k^2)."""
    if len(walk) < 2:
        return walk
    keys = [occ_text(o) for o in walk]
    n = len(walk)
    best = min(range(n), key=lambda i: (keys[i], [keys[(i + j) % n] for j in range(n)]))
    return walk[best:] + walk[:best]


def random_walk(rng, edges, length):
    return tuple((rng.choice((1, -1)), rng.choice(edges)) for _ in range(length))


def test_least_rotation_matches_full_comparison():
    rng = random.Random(841)
    walks = [(), w("+a"), w("-a"), w("+a +a"), w("-b +a"), w("+a -b +a -b")]
    for _ in range(400):
        # Two edges and a few repeats make ties, and so Booth's slow path,
        # common.
        block = random_walk(rng, "ab", rng.randrange(1, 5))
        walks.append(block * rng.randrange(1, 4))
        walks.append(random_walk(rng, "abc", rng.randrange(13)))
    for walk in walks:
        assert _canonical_rotation(walk) == reference_rotation(walk)


def test_occurrence_endpoints():
    S = support.tetra()
    assert S.occ_source((1, "e12")) == "v1"
    assert S.occ_target((1, "e12")) == "v2"
    assert S.occ_source((-1, "e12")) == "v2"
    assert S.occ_target((-1, "e12")) == "v1"
    assert S.is_loop("e12") is False
    assert support.torus_one().is_loop("a") is True


# ---- validation ----------------------------------------------------------


def test_named_complexes_are_valid():
    for build in support.all_seed_builders():
        S = build()
        assert S.validate() == [], f"{S.name}: {S.validate()}"


def test_validate_reports_occurrence_count():
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("+a -a")},
    )
    msgs = S.validate()
    assert any("b" in m and "0" in m for m in msgs)


def test_validate_reports_broken_chain():
    S = SurfaceComplex(
        vertices=frozenset({"u", "x"}),
        edges={"e": ("u", "x"), "g": ("u", "x")},
        faces={"F": w("+e +g"), "G": w("-e -g")},
    )
    msgs = S.validate()
    assert any("F" in m for m in msgs)


def test_validate_reports_disconnection():
    S = disjoint_union(support.torus_one(), renamed(support.proj_plane(), "_p"))
    msgs = S.validate()
    assert any("disconnected" in m for m in msgs)


def test_validate_agrees_with_independent_check():
    """validate() passes exactly when the separately written test passes."""
    rng = random.Random(20260822)
    corpus = support.random_corpus(seed=1, count=40)
    for S in corpus:
        variants = [S]
        f = rng.choice(sorted(S.faces))
        variants.append(
            SurfaceComplex(
                vertices=S.vertices,
                edges=S.edges,
                faces={g: walk for g, walk in S.faces.items() if g != f},
            )
        )
        stray = (rng.choice(sorted(S.vertices)), rng.choice(sorted(S.vertices)))
        variants.append(
            SurfaceComplex(
                vertices=S.vertices, edges={**S.edges, "stray": stray}, faces=S.faces
            )
        )
        fl = rng.choice(sorted(S.faces))
        i = rng.randrange(len(S.faces[fl]))
        flipped = list(S.faces[fl])
        flipped[i] = (-flipped[i][0], flipped[i][1])
        variants.append(
            SurfaceComplex(
                vertices=S.vertices,
                edges=S.edges,
                faces={**S.faces, fl: tuple(flipped)},
            )
        )
        variants.append(disjoint_union(S, renamed(support.slit_sphere(), "_z")))
        for T in variants:
            assert (T.validate() == []) == support.is_closed_surface(T), T.faces


# ---- counting ------------------------------------------------------------


def test_euler_characteristic_values():
    assert support.tetra().euler_characteristic() == 2
    assert support.torus_one().euler_characteristic() == 0
    assert support.disk_sphere().euler_characteristic() == 2
    assert support.proj_plane().euler_characteristic() == 1
    assert support.klein().euler_characteristic() == 0
    assert support.slit_sphere().euler_characteristic() == 2
    assert support.theta_sphere().euler_characteristic() == 2
    assert support.grid_torus(2, 2).euler_characteristic() == 0
    assert support.grid_torus(3, 1).euler_characteristic() == 0
    big = support.grid_torus(12, 12)
    assert len(big.vertices) == 144
    assert big.validate() == []
    assert big.euler_characteristic() == 0


def test_corner_count_is_twice_edges():
    for S in support.random_corpus(seed=2, count=25):
        assert len(corners(S)) == 2 * len(S.edges)


def test_corner_vertices_on_tetra():
    S = support.tetra()
    at = {(f, i): v for v, f, i in corners(S)}
    assert at[("f123", 0)] == "v1"
    assert at[("f123", 1)] == "v2"
    assert at[("f123", 2)] == "v3"
    assert S.corner_vertex("f123", 5) == "v3"


def test_hasse_multiplicities():
    H = hasse_diagram(support.tetra())
    assert H.level_total(0) == 12
    assert H.level_total(1) == 12
    assert H.multiplicity("v1", "e12") == 1
    assert H.multiplicity("e12", "f123") == 1
    assert H.multiplicity("v1", "e23") == 0
    loopy = hasse_diagram(support.disk_sphere())
    assert loopy.multiplicity("v", "e") == 2
    doubled = hasse_diagram(support.proj_plane())
    assert doubled.multiplicity("a", "F") == 2


def test_hasse_totals_on_corpus():
    for S in support.random_corpus(seed=3, count=25):
        H = hasse_diagram(S)
        assert H.level_total(0) == 2 * len(S.edges)
        assert H.level_total(1) == 2 * len(S.edges)


# ---- vertex links and duality --------------------------------------------


def test_links_single_cycle_on_named_complexes():
    for build in support.all_seed_builders():
        S = build()
        cycles = S.vertex_link_cycles()
        for v in S.vertices:
            assert len(cycles[v]) == 1, f"{S.name} vertex {v}"


def test_link_cycle_lengths():
    cycles = support.tetra().vertex_link_cycles()
    assert all(len(cs[0]) == 3 for cs in cycles.values())
    assert len(support.torus_one().vertex_link_cycles()["v"][0]) == 4
    assert len(support.disk_sphere().vertex_link_cycles()["v"][0]) == 2


def test_pinched_complex_passes_validate_but_has_no_dual():
    S = support.pinched_spheres()
    assert S.validate() == []
    assert len(S.vertex_link_cycles()["v"]) == 2
    with pytest.raises(InvalidComplexError):
        S.dual()


def test_link_cycles_need_every_edge_twice():
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("+a +b +b")},
    )
    with pytest.raises(InvalidComplexError, match="edge a occurs 1 time"):
        S.vertex_link_cycles()


# ---- differential check against the per-step link walk ------------------
#
# A copy of the earlier vertex_link_cycles: it walks the edge ends with one
# dict per step, sorting each end's slots to pick the next departure.  The
# cached slot-partner index must give the same cycles, in the same order.


def _reference_link_cycles(S):
    end_slots = {}
    for e in S.edges:
        end_slots[(e, 0)] = []
        end_slots[(e, 1)] = []
    corner_of = {}
    for f in sorted(S.faces):
        walk = S.faces[f]
        n = len(walk)
        for i in range(n):
            prev = walk[(i - 1) % n]
            cur = walk[i]
            in_end = (prev[1], 1 if prev[0] > 0 else 0)
            out_end = (cur[1], 0 if cur[0] > 0 else 1)
            corner_of[(f, i)] = (in_end, out_end)
            end_slots[in_end].append((f, i, "in"))
            end_slots[out_end].append((f, i, "out"))

    def slot_occ(f, i, side):
        n = len(S.faces[f])
        return (f, (i - 1) % n) if side == "in" else (f, i)

    cycles_by_vertex = {v: [] for v in S.vertices}
    consumed = set()
    for end in sorted(end_slots):
        for first in sorted(end_slots[end]):
            if (end, first) in consumed:
                continue
            cycle = []
            cur_end, depart = end, first
            while True:
                consumed.add((cur_end, depart))
                f, i, side = depart
                other_side = "out" if side == "in" else "in"
                in_end, out_end = corner_of[(f, i)]
                nxt_end = out_end if other_side == "out" else in_end
                arrive = (f, i, other_side)
                consumed.add((nxt_end, arrive))
                nxt_depart = None
                for slot in sorted(end_slots[nxt_end]):
                    if (nxt_end, slot) not in consumed:
                        nxt_depart = slot
                        break
                cycle.append({"end": nxt_end, "occ_in": slot_occ(*arrive)})
                if nxt_depart is None:
                    break
                cycle[-1]["occ_out"] = slot_occ(*nxt_depart)
                cycle[-1]["corner"] = (nxt_depart[0], nxt_depart[1])
                cycle[-1]["corner_side"] = nxt_depart[2]
                cur_end, depart = nxt_end, nxt_depart
            cycle[-1]["occ_out"] = slot_occ(*first)
            cycle[-1]["corner"] = (first[0], first[1])
            cycle[-1]["corner_side"] = first[2]
            cycles_by_vertex[S.edges[end[0]][end[1]]].append(cycle)
    return cycles_by_vertex


def _reference_step(S, step):
    """A (face, position, side) step in the reference's dict form."""
    f, i, side = step
    p = (i - 1) % len(S.faces[f]) if side == "in" else i
    sign, e = S.faces[f][p]
    (other,) = [occ for occ in S.occurrence_index[e] if occ != (f, p)]
    return {
        "end": (e, 0 if (sign > 0) == (side == "out") else 1),
        "occ_in": other,
        "occ_out": (f, p),
        "corner": (f, i),
        "corner_side": side,
    }


def test_link_cycles_match_reference_walk():
    inputs = [build() for build in support.all_seed_builders()]
    inputs += support.random_corpus(seed=23, count=40)
    for rows, cols in ((1, 1), (1, 3), (2, 5), (3, 3), (4, 7), (10, 10)):
        inputs += [support.grid_torus(rows, cols), support.grid_klein(rows, cols)]
    inputs.append(support.pinched_spheres())
    inputs += [radial_decomposition(S).complex for S in inputs]
    steps = 0
    for S in inputs:
        got = S.vertex_link_cycles()
        want = _reference_link_cycles(S)
        assert set(got) == set(want) == S.vertices, S.name
        for v in sorted(S.vertices):
            cycles = [[_reference_step(S, step) for step in cycle] for cycle in got[v]]
            assert cycles == want[v], (S.name, v)
            steps += sum(map(len, cycles))
    assert len(inputs) == 122 and steps >= 5000


def test_dual_of_invalid_complex_rejected():
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("+a -a")},
    )
    with pytest.raises(InvalidComplexError):
        S.dual()


def test_dual_disk_sphere_is_slit_sphere():
    D = support.disk_sphere().dual()
    assert D.vertices == frozenset({"n", "s"})
    assert D.edges == {"e": ("n", "s")}
    assert D.faces == {"v": w("+e -e")}


def test_dual_slit_sphere_is_disk_sphere():
    D = support.slit_sphere().dual()
    assert D.vertices == frozenset({"F"})
    assert D.edges == {"e": ("F", "F")}
    assert D.faces == {"u": w("+e"), "w": w("-e")}


def test_dual_torus_is_torus():
    D = support.torus_one().dual()
    assert D.vertices == frozenset({"F"})
    assert D.edges == {"a": ("F", "F"), "b": ("F", "F")}
    assert D.faces == {"v": w("+a +b -a -b")}


def test_dual_proj_plane():
    D = support.proj_plane().dual()
    assert D.faces == {"v": w("-a -a")}


def test_dual_theta_is_double_triangle():
    D = support.theta_sphere().dual()
    assert D.faces == {"u": w("+b +c -a"), "w": w("+b +c -a")}
    assert D.edges == {
        "a": ("fab", "fca"),
        "b": ("fab", "fbc"),
        "c": ("fbc", "fca"),
    }


def test_dual_tetra_is_tetrahedral():
    """The triangle-pyramid complex is self-dual up to relabeling."""
    S = support.tetra()
    D = S.dual()
    assert D.validate() == []
    assert D.vertices == frozenset(S.faces)
    assert all(len(walk) == 3 for walk in D.faces.values())
    pairs = {frozenset(D.edges[e]) for e in D.edges}
    assert len(pairs) == 6 and all(len(p) == 2 for p in pairs)


def test_double_dual_round_trips_identifiers():
    for build in support.all_seed_builders():
        S = build()
        DD = S.dual().dual()
        assert DD.vertices == S.vertices
        assert set(DD.edges) == set(S.edges)
        assert set(DD.faces) == set(S.faces)
        for e in S.edges:
            assert set(DD.edges[e]) == set(S.edges[e]), f"{S.name} edge {e}"


def test_dual_preserves_euler_characteristic_on_corpus():
    for S in support.random_corpus(seed=4, count=25):
        D = S.dual()
        assert D.validate() == []
        assert D.euler_characteristic() == S.euler_characteristic()
        assert len(corners(D)) == len(corners(S))


# ---- walk surgery --------------------------------------------------------


def test_split_face_tetra():
    S = support.tetra()
    T = split_face(S, "f134", 2, 0, "d", "fa", "fb")
    assert T.validate() == []
    assert T.euler_characteristic() == 2
    assert T.edges["d"] == ("v4", "v1")
    assert support.is_rotation(T.faces["fa"], w("-e14 -d"))
    assert support.is_rotation(T.faces["fb"], w("+e13 +e34 +d"))


def test_split_then_merge_round_trips():
    S = support.tetra()
    T = split_face(S, "f134", 2, 0, "d", "fa", "fb")
    back = delete_edge_merge_faces(T, "d", "f134")
    assert back == S


def test_delete_edge_merges_walks():
    S = support.tetra()
    T = delete_edge_merge_faces(S, "e13", "m")
    assert T.validate() == []
    assert T.euler_characteristic() == 2
    assert T.faces["m"] == w("+e12 +e23 +e34 -e14")


def test_delete_same_sign_loop_keeps_one_link_cycle():
    # A projective plane at one vertex: both occurrences of the loop a
    # carry the same sign, so the rest of F2 must be reversed; keeping it
    # forward would give -b +b and pinch the vertex into two link cycles.
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F1": w("+a +b"), "F2": w("+a -b")},
    )
    assert S.validate() == []
    assert len(S.vertex_link_cycles()["v"]) == 1
    T = delete_edge_merge_faces(S, "a", "m")
    assert T.faces["m"] == w("+b +b")
    assert T.validate() == []
    assert len(T.vertex_link_cycles()["v"]) == 1


def test_delete_edge_refuses_single_face():
    with pytest.raises(DegenerateOperationError):
        delete_edge_merge_faces(support.torus_one(), "a", "m")


def test_delete_edge_refuses_empty_result():
    with pytest.raises(DegenerateOperationError):
        delete_edge_merge_faces(support.disk_sphere(), "e", "m")


def test_subdivide_edge_tetra():
    S = support.tetra()
    T = subdivide_edge(S, "e12", "m", "p", "q")
    assert T.validate() == []
    assert T.euler_characteristic() == 2
    assert T.edges["p"] == ("v1", "m")
    assert T.edges["q"] == ("m", "v2")
    assert support.is_rotation(T.faces["f123"], w("+p +q +e23 -e13"))
    assert support.is_rotation(T.faces["f124"], w("+e14 -e24 -q -p"))


def test_random_moves_preserve_validity():
    """Subdivision and splitting keep complexes valid with the same count."""
    rng = random.Random(5)
    for build in support.all_seed_builders():
        S = build()
        chi = S.euler_characteristic()
        for _ in range(6):
            grown = rng.choice([support.subdivide_move, support.split_move])(S, rng)
            if grown is None:
                continue
            S = grown
            assert S.validate() == []
            assert S.euler_characteristic() == chi


def test_fresh_id():
    assert fresh_id("x", set()) == "x"
    assert fresh_id("x", {"x"}) == "x_2"
    assert fresh_id("x", {"x", "x_2", "x_3"}) == "x_4"
