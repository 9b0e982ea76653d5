import random
from collections import Counter

import pytest

import support
from support import hasse_diagram
from linefields import (
    LineField,
    NotInImageError,
    OperationError,
    SurfaceComplex,
    VectorField,
    complexes_isomorphic,
    critical_cells_dvf,
    delete_edge_merge_faces,
    dlf_to_dvf,
    dualize,
    dvf_to_dlf,
    emit_line_field,
    emit_vector_field,
    fresh_id,
    is_radial,
    line_fields_isomorphic,
    radial_decomposition,
    split_face,
    validate_line_field,
)
from linefields.radial import _bipartition, _factor


def small_builders():
    return [b for b in support.all_seed_builders() if len(b().edges) <= 5]


def strip_map(S):
    return {f"w_{v}": v for v in S.vertices}


def all_vector_fields(S):
    for matching in support.all_matchings(support.vector_field_pairs(S)):
        yield VectorField(S, matching)


# ---- the decomposition ---------------------------------------------------


def test_radial_counts_and_shape():
    for builder in support.all_seed_builders():
        S = builder()
        R = radial_decomposition(S)
        T = R.complex
        assert len(T.vertices) == len(S.vertices) + len(S.faces)
        assert len(T.edges) == 2 * len(S.edges)
        assert len(T.faces) == len(S.edges)
        assert T.validate() == []
        assert T.euler_characteristic() == S.euler_characteristic()
        assert sorted(R.vertex_origin.values()) == sorted(
            list(S.vertices) + list(S.faces)
        )
        assert sorted(R.face_origin.values()) == sorted(S.edges)
        for q in T.faces:
            walk = T.faces[q]
            assert len(walk) == 4
            kinds = [
                R.vertex_origin[T.corner_vertex(q, i)] in S.vertices
                for i in range(4)
            ]
            assert kinds in ([True, False, True, False], [False, True, False, True])


def test_radial_worked_sizes():
    T = radial_decomposition(support.tetra()).complex
    assert (len(T.vertices), len(T.edges), len(T.faces)) == (8, 12, 6)
    assert T.euler_characteristic() == 2
    Q = radial_decomposition(support.torus_one()).complex
    assert (len(Q.vertices), len(Q.edges), len(Q.faces)) == (2, 4, 2)
    assert Q.euler_characteristic() == 0


def test_radial_quad_walks_on_torus():
    T = radial_decomposition(support.torus_one()).complex
    assert support.is_rotation(
        T.faces["q_a"], support.w("+r_F_0 -r_F_1 +r_F_2 -r_F_3")
    )
    assert support.is_rotation(
        T.faces["q_b"], support.w("+r_F_1 -r_F_2 +r_F_3 -r_F_0")
    )


def test_radial_quad_walk_same_sign_occurrences():
    # Both occurrences of the edge point the same way around, so the
    # second flank is traversed in reverse and each side edge appears
    # twice on the single quad.
    T = radial_decomposition(support.proj_plane()).complex
    assert support.is_rotation(
        T.faces["q_a"], support.w("+r_F_0 -r_F_1 +r_F_0 -r_F_1")
    )
    assert T.validate() == []


def test_radial_coincides_with_dual_radial():
    for builder in (support.tetra, support.torus_one, support.theta_sphere):
        S = builder()
        R1 = radial_decomposition(S).complex
        R2 = radial_decomposition(S.dual()).complex
        fixed = {v: v for v in R1.vertices}
        assert complexes_isomorphic(R1, R2, vertex_map=fixed)


# ---- recognizing radial complexes ----------------------------------------


def test_is_radial_accepts_decompositions():
    for builder in support.all_seed_builders():
        assert is_radial(radial_decomposition(builder()).complex)


def test_is_radial_rejects_triangulations_and_loops():
    assert not is_radial(support.tetra())
    assert not is_radial(support.torus_one())


def test_is_radial_rejects_pinched_refinement():
    # The refinement of a pinched complex keeps two link cycles at the
    # pinch vertex; bipartite quadrilaterals alone would accept it.
    T = radial_decomposition(support.pinched_spheres()).complex
    assert T.validate() == []
    assert all(len(walk) == 4 for walk in T.faces.values())
    assert not is_radial(T)


# ---- vector field to line field ------------------------------------------


def test_image_of_empty_field_is_bare_refinement():
    S = support.tetra()
    L = dvf_to_dlf(VectorField(S))
    assert L.matching == frozenset()
    assert L.complex == radial_decomposition(S).complex


def test_image_of_single_pair_worked():
    S = support.tetra()
    L = dvf_to_dlf(VectorField(S, frozenset({("v1", "e12")})))
    T = L.complex
    assert L.matching == frozenset({("w_v1", "d_e12")})
    assert len(T.faces) == 7
    assert "q_e12" not in T.faces
    assert T.edges["d_e12"] == ("w_v1", "w_v2")
    assert support.is_rotation(
        T.faces["q_e12_0"], support.w("+r_f123_0 -r_f123_1 -d_e12")
    )
    assert support.is_rotation(
        T.faces["q_e12_1"], support.w("+r_f124_2 -r_f124_0 +d_e12")
    )
    assert T.validate() == []


def test_image_critical_vertices_follow_source():
    S = support.theta_sphere()
    V = VectorField(S, frozenset({("u", "a"), ("b", "fab")}))
    L = dvf_to_dlf(V)
    from linefields import critical_cells, critical_cells_dvf

    matched_cells = {c for pair in V.matching for c in pair}
    expect = {
        f"w_{c}"
        for c in list(S.vertices) + list(S.faces)
        if c not in matched_cells
    }
    got = {c for c, d in critical_cells(L).items() if c in L.complex.vertices}
    assert got == expect
    assert set(critical_cells_dvf(V)) - set(S.edges) == {
        c for c in critical_cells_dvf(V) if f"w_{c}" in expect
    }


def test_image_euler_sum_doubles():
    rng = random.Random(811)
    for builder in support.all_seed_builders():
        S = builder()
        for _ in range(3):
            V = VectorField(
                S, support.sample_matching(support.vector_field_pairs(S), rng)
            )
            L = dvf_to_dlf(V)
            assert L.complex.validate() == []
            assert sum(L.doubled_critical().values()) == 2 * sum(critical_cells_dvf(V).values())


# ---- line field back to vector fields ------------------------------------


def test_factoring_rejects_bare_triangulation():
    with pytest.raises(NotInImageError):
        dlf_to_dvf(LineField(support.tetra()))


def test_factoring_rejects_extra_matched_edge():
    S = support.tetra()
    L = dvf_to_dlf(VectorField(S, frozenset({("v1", "e12")})))
    bigger = LineField(L.complex, L.matching | {("w_v2", "r_f123_1")})
    with pytest.raises(NotInImageError):
        dlf_to_dvf(bigger)


def test_factoring_rejects_invalid_matching():
    S = support.tetra()
    L = dvf_to_dlf(VectorField(S, frozenset({("v1", "e12")})))
    broken = LineField(L.complex, L.matching | {("w_v1", "r_f123_0")})
    with pytest.raises(NotInImageError):
        dlf_to_dvf(broken)


def test_round_trip_worked():
    S = support.tetra()
    V = VectorField(S, frozenset({("v1", "e12")}))
    A, B = dlf_to_dvf(dvf_to_dlf(V))
    strip = strip_map(S)
    direct = [X for X in (A, B) if line_fields_isomorphic(X, V, vertex_map=strip)]
    assert len(direct) == 1
    other = B if direct[0] is A else A
    assert line_fields_isomorphic(other, dualize(V))


def test_factoring_builds_one_link_index(monkeypatch):
    """The radial check and both factors read the links of one complex,
    which builds them once: every call returns the same object."""
    L = dvf_to_dlf(VectorField(support.grid_torus(3, 3), frozenset({("v00", "h00")})))
    original = SurfaceComplex.vertex_link_cycles
    calls = []

    def recording(self):
        links = original(self)
        calls.append(links)
        return links

    monkeypatch.setattr(SurfaceComplex, "vertex_link_cycles", recording)
    dlf_to_dvf(L)
    assert calls and len({id(links) for links in calls}) == 1


def test_image_builds_one_complex(monkeypatch):
    """dvf_to_dlf splits the quadrilaterals on plain maps and constructs
    only the image, not the bare refinement first."""
    V = VectorField(support.grid_torus(3, 3), frozenset({("v00", "h00"), ("v11", "h11")}))
    original = SurfaceComplex.__post_init__
    calls = []

    def recording(self):
        calls.append(self.name)
        original(self)

    monkeypatch.setattr(SurfaceComplex, "__post_init__", recording)
    dvf_to_dlf(V)
    assert len(calls) == 1


def prefixed_ids_sphere():
    """Three parallel edges whose ids, and the faces', look like radial ids
    and fresh_id suffixes of one another."""
    return SurfaceComplex(
        vertices=frozenset({"u", "w_u"}),
        edges={"e": ("u", "w_u"), "e_0": ("u", "w_u"), "q_e": ("u", "w_u")},
        faces={
            "a": support.w("+e -e_0"),
            "a_1": support.w("+e_0 -q_e"),
            "r_a": support.w("+q_e -e"),
        },
        name="prefixed",
    )


def test_radial_ids_follow_the_naming_contract():
    # Nothing renames a radial id: w_<cell>, r_<face>_<position>, q_<edge>.
    for S in differential_corpus() + [prefixed_ids_sphere()]:
        R = radial_decomposition(S)
        assert R.vertex_origin == {f"w_{c}": c for c in [*S.vertices, *S.faces]}
        assert R.face_origin == {f"q_{e}": e for e in S.edges}
        assert set(R.complex.edges) == {
            f"r_{f}_{i}" for f, walk in S.faces.items() for i in range(len(walk))
        }
        for f, walk in S.faces.items():
            for i in range(len(walk)):
                ends = (f"w_{S.corner_vertex(f, i)}", f"w_{f}")
                assert R.complex.edges[f"r_{f}_{i}"] == ends


def test_round_trip_exhaustive_small_complexes():
    for builder in small_builders():
        S = builder()
        strip = strip_map(S)
        dual_strip = {f"w_{f}": f for f in S.faces}
        for V in all_vector_fields(S):
            A, B = dlf_to_dvf(dvf_to_dlf(V))
            W = dualize(V)
            assert (
                line_fields_isomorphic(A, V, vertex_map=strip)
                and line_fields_isomorphic(B, W, vertex_map=dual_strip)
            ) or (
                line_fields_isomorphic(B, V, vertex_map=strip)
                and line_fields_isomorphic(A, W, vertex_map=dual_strip)
            )


def test_round_trip_random_larger_instances():
    rng = random.Random(812)
    fields = []
    for S in support.random_corpus(813, 12, max_moves=3):
        for _ in range(2):
            fields.append(
                VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
            )
    big = support.grid_torus(12, 12)
    fields.append(
        VectorField(big, support.sample_matching(support.vector_field_pairs(big), rng))
    )
    for V in fields:
        S = V.complex
        A, B = dlf_to_dvf(dvf_to_dlf(V))
        strip = strip_map(S)
        dual_strip = {f"w_{f}": f for f in S.faces}
        assert (
            line_fields_isomorphic(A, V, vertex_map=strip)
            and line_fields_isomorphic(B, dualize(V), vertex_map=dual_strip)
        ) or (
            line_fields_isomorphic(B, V, vertex_map=strip)
            and line_fields_isomorphic(A, dualize(V), vertex_map=dual_strip)
        )


def test_image_ignores_dualization():
    for builder in small_builders():
        S = builder()
        for V in all_vector_fields(S):
            L1 = dvf_to_dlf(V)
            L2 = dvf_to_dlf(dualize(V))
            fixed = {v: v for v in L1.complex.vertices}
            assert line_fields_isomorphic(L1, L2, vertex_map=fixed)


# ---- differential check against the move-by-move bridge ------------------
#
# The reference applies one split_face or delete_edge_merge_faces per pair,
# building a complex after every move, and recomputes the taken names from
# the live cells each time.  The library's bridge must emit the same text
# and refuse with the same exception and message.


def reference_dvf_to_dlf(V):
    S = V.complex
    R = radial_decomposition(S)
    T = R.complex
    quad_of = {e: q for q, e in R.face_origin.items()}
    vertex_of = {c: w for w, c in R.vertex_origin.items()}
    pairs = []
    for lo, up in sorted(V.matching):
        e, other = (lo, up) if lo in S.edges else (up, lo)
        quad = quad_of[e]
        anchor = vertex_of[other]
        k = min(i for i in range(4) if T.corner_vertex(quad, i) == anchor)
        taken = {cid for cid, _d in T.cells()}
        diag = fresh_id(f"d_{e}", taken)
        taken.add(diag)
        half_a = fresh_id(f"{quad}_0", taken)
        taken.add(half_a)
        half_b = fresh_id(f"{quad}_1", taken)
        T = split_face(T, quad, k, (k + 2) % 4, diag, half_a, half_b)
        pairs.append((anchor, diag))
    return LineField(T, frozenset(pairs))


def reference_dlf_to_dvf(L):
    if validate_line_field(L):
        raise NotInImageError("not a valid line field")
    T = L.complex
    merged_quad = {}
    for _v, d in sorted(L.matching, key=lambda pair: pair[1]):
        occs = T.edge_occurrences(d)
        if len(occs) != 2 or occs[0][0] == occs[1][0]:
            raise NotInImageError(f"matched edge {d} is not a face diagonal")
        if any(len(T.faces[f]) != 3 for f, _i in occs):
            raise NotInImageError(f"matched edge {d} does not split a quadrilateral")
        taken = {cid for cid, _dim in T.cells()}
        qid = fresh_id(f"m_{d}", taken)
        T = delete_edge_merge_faces(T, d, qid)
        merged_quad[d] = qid
    if not is_radial(T):
        raise NotInImageError("unmatched edges do not form a radial refinement")
    first, second = _bipartition(T)
    return (
        _factor(T, first, second, L.matching, merged_quad, f"{T.name}_a"),
        _factor(T, second, first, L.matching, merged_quad, f"{T.name}_b"),
    )


def outcome(bridge, field):
    """(None, emitted text) for a bridge's result, or (class, message) for
    what it raised."""
    try:
        result = bridge(field)
    except OperationError as exc:
        return type(exc), str(exc)
    if isinstance(result, LineField):
        return None, emit_line_field(result)
    return None, tuple(emit_vector_field(X) for X in result)


def assert_same_image(V):
    assert outcome(dvf_to_dlf, V) == outcome(reference_dvf_to_dlf, V)


def assert_same_factors(L):
    got = outcome(dlf_to_dvf, L)
    assert got == outcome(reference_dlf_to_dvf, L)
    return got


def differential_corpus():
    return [b() for b in support.all_seed_builders()] + support.random_corpus(
        821, 40, max_moves=4
    )


def test_edge_slots_agree_with_edge_occurrences():
    # The cached index against a scan of every walk for each edge, and the
    # slot pairing against the index.
    for S in differential_corpus():
        for e in S.edges:
            scan = [
                (f, i)
                for f in sorted(S.faces)
                for i, (_s, x) in enumerate(S.faces[f])
                if x == e
            ]
            assert S.occurrence_index[e] == tuple(scan)
            assert S.edge_occurrences(e) == scan
            a, b = scan
            assert S.opposite[a] == b and S.opposite[b] == a
        assert S.occurrence_index.keys() == S.edges.keys()
        assert all(S.opposite[slot] != slot for slot in S.opposite)
        assert len(S.opposite) == 2 * len(S.edges)
    # Edge a occurs once and has no entry; b occurs twice on one face.
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": ((1, "a"), (1, "b"), (1, "b"))},
    )
    assert S.opposite == {("F", 1): ("F", 2), ("F", 2): ("F", 1)}


def test_bridge_matches_move_by_move_on_random_fields():
    rng = random.Random(822)
    corpus = differential_corpus()
    assert any(S.is_loop(e) for S in corpus for e in S.edges)
    assert any(
        S.faces[f1][i1][0] == S.faces[f2][i2][0]
        for S in corpus
        for (f1, i1), (f2, i2) in S.occurrence_index.values()
    )
    for S in corpus:
        for _ in range(4):
            V = VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
            assert_same_image(V)
            assert assert_same_factors(dvf_to_dlf(V))[0] is None


def refusal_after_merge(L, message):
    """Whether the diagonal named in `message` shares an original face with
    a diagonal deleted before it."""
    d = message.split()[2]
    earlier = {e for _v, e in L.matching if e < d}
    faces = {f for f, _i in L.complex.edge_occurrences(d)}
    return any(
        f in faces for e in earlier for f, _i in L.complex.edge_occurrences(e)
    )


def test_factoring_matches_move_by_move_on_adversarial_fields():
    rng = random.Random(823)
    kinds = Counter()
    for S in differential_corpus():
        V = VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
        image = dvf_to_dlf(V)
        cases = []
        for T in (image.complex, radial_decomposition(S).complex):
            for _ in range(3):
                pairs = support.line_field_pairs(T)
                cases.append(LineField(T, support.sample_matching(pairs, rng)))
        free = [
            (v, e)
            for v, e in support.line_field_pairs(image.complex)
            if v not in image.matched_vertices() and e not in image.matched_edges()
        ]
        if free:
            cases.append(LineField(image.complex, image.matching | {rng.choice(free)}))
        for L in cases:
            got = assert_same_factors(L)
            if got[0] is None:
                kinds["factored"] += 1
                continue
            message = got[1]
            kind = message.split(" ", 3)[-1] if message.startswith("matched") else message
            kinds[kind] += 1
            if "quadrilateral" in message and refusal_after_merge(L, message):
                kinds["refused after a merge"] += 1
    assert set(kinds) == {
        "factored",
        "is not a face diagonal",
        "does not split a quadrilateral",
        "unmatched edges do not form a radial refinement",
        "refused after a merge",
    }


def collision_sphere():
    """Three parallel edges a, a_0, c between u and w: the halves of q_a are
    named like the quadrilateral q_a_0."""
    return SurfaceComplex(
        vertices=frozenset({"u", "w"}),
        edges={"a": ("u", "w"), "a_0": ("u", "w"), "c": ("u", "w")},
        faces={
            "f0": support.w("+a -a_0"),
            "f1": support.w("+a_0 -c"),
            "f2": support.w("+c -a"),
        },
        name="collide",
    )


def renamed(L, names):
    def r(cell):
        return names.get(cell, cell)

    S = L.complex
    return LineField(
        SurfaceComplex(
            frozenset(r(v) for v in S.vertices),
            {r(e): (r(t), r(h)) for e, (t, h) in S.edges.items()},
            {r(f): tuple((s, r(e)) for s, e in walk) for f, walk in S.faces.items()},
            name=S.name,
        ),
        frozenset((r(v), r(e)) for v, e in L.matching),
    )


def test_bridge_identifier_collisions_match_move_by_move():
    S = collision_sphere()
    # q_a is split while q_a_0 is live, so its first half takes a suffix.
    live = VectorField(S, frozenset({("u", "a"), ("w", "a_0")}))
    assert_same_image(live)
    L = dvf_to_dlf(live)
    assert {"q_a_0_2", "q_a_1", "q_a_0_0", "q_a_0_1"} <= set(L.complex.faces)
    # q_a_0 is split first, so the name is free again when q_a splits.
    dead = VectorField(S, frozenset({("a_0", "f1"), ("u", "a")}))
    assert_same_image(dead)
    assert len(dvf_to_dlf(dead).complex.faces["q_a_0"]) == 3

    # A live cell m_d_a pushes the merge of d_a to m_d_a_2; the half of
    # q_a renamed m_d_a_0 is merged away by d_a, freeing that name for d_a_0.
    X = renamed(L, {"w_f2": "m_d_a", "q_a_1": "m_d_a_0"})
    assert {"d_a", "d_a_0"} <= set(X.complex.edges)
    assert assert_same_factors(X)[0] is None
    A, _B = dlf_to_dvf(X)
    assert {"m_d_a_2", "m_d_a_0"} <= set(A.complex.edges)


# ---- acyclicity across the bridge ----------------------------------------


def doubly_incident(S, matching):
    H = hasse_diagram(S)
    return any(H.multiplicity(lo, up) == 2 for lo, up in matching)


def test_cyclic_fields_have_cyclic_images():
    for builder in small_builders():
        S = builder()
        for V in all_vector_fields(S):
            if V.closed_path() is not None:
                assert dvf_to_dlf(V).closed_path() is not None


def test_acyclicity_matches_without_doubly_incident_pairs():
    for builder in small_builders():
        S = builder()
        for V in all_vector_fields(S):
            if doubly_incident(S, V.matching):
                continue
            assert (V.closed_path() is None) == (dvf_to_dlf(V).closed_path() is None)


def test_matched_loop_separates_the_two_notions():
    # A matched loop edge is acyclic as a vector field pair but its image
    # matches a loop diagonal, which closes a length-one path.
    V = VectorField(support.torus_one(), frozenset({("v", "a")}))
    assert V.closed_path() is None
    assert dvf_to_dlf(V).closed_path() is not None
