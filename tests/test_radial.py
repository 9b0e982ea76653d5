import random
from collections import Counter
from functools import cached_property

import pytest

from isomorphism import complexes_isomorphic, line_fields_isomorphic
import model
import support
from support import hasse_diagram
from linefields import (
    InvalidComplexError,
    LineField,
    NotInImageError,
    OperationError,
    SurfaceComplex,
    VectorField,
    critical_cells_dvf,
    delete_edge_merge_faces,
    dlf_to_dvf,
    dualize,
    dvf_to_dlf,
    is_radial,
    radial_decomposition,
    validate_vector_field,
)
from linefields import radial


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


def test_image_refuses_invalid_vector_fields():
    # Refused before any work, with the field's first violation; the corner
    # pick would otherwise misplace a diagonal without a word.
    S = support.grid_torus(3, 3)
    cases = [
        {("v02", "h00")},  # v02 is not an endpoint of h00
        {("h00", "q01")},  # h00 is not on the walk of q01
        {("nope", "h00")},  # an unknown cell
        {("v00", "h00"), ("h00", "q00")},  # h00 in two pairs
    ]
    for matching in cases:
        V = VectorField(S, frozenset(matching))
        (problem, *_rest) = validate_vector_field(V)
        with pytest.raises(OperationError) as caught:
            dvf_to_dlf(V)
        assert str(caught.value) == f"not a valid vector field: {problem}"


def test_refinement_refuses_edges_not_occurring_twice():
    S = support.grid_torus(3, 3)
    walks = {f: walk for f, walk in S.faces.items() if f != "q11"}
    T = SurfaceComplex(S.vertices, S.edges, walks, name="holed")
    message = "edge h11 occurs 1 time(s) in boundary walks, expected 2"
    assert T.validate()[0] == message
    for refine in (radial_decomposition, lambda X: dvf_to_dlf(VectorField(X))):
        with pytest.raises(InvalidComplexError) as caught:
            refine(T)
        assert str(caught.value) == message


def test_refinement_refuses_what_validate_refuses():
    """The bridge refuses every complex that validate() does, with its first
    problem: walks that do not chain although every edge occurs twice, and
    a disconnected complex.  dvf_to_dlf refuses an invalid field first."""
    bigons = SurfaceComplex(frozenset("uv"), {"a": ("u", "v"), "b": ("u", "v")},
                            {"F": support.w("+a +b"), "G": support.w("-a -b")}, name="broken")
    tetra = support.tetra()
    apart = support.disjoint_union(tetra, support.suffixed(tetra, "_z"))
    for S, message in ((bigons, "face F breaks between positions 0 and 1: v != u"),
                       (apart, "incidence structure is disconnected (2 components)")):
        assert S.validate()[0] == message
        for refine in (radial_decomposition, lambda X: dvf_to_dlf(VectorField(X))):
            with pytest.raises(InvalidComplexError) as caught:
                refine(S)
            assert str(caught.value) == message
    with pytest.raises(OperationError, match="^not a valid vector field: "):
        dvf_to_dlf(VectorField(bigons, frozenset({("nope", "a")})))


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
    """The radial check and both factors are one pass (_factor) that reads
    the dart table of the merged complex once, and that complex builds it
    once; the image builds none.  Nothing calls vertex_link_cycles(),
    which decodes the table to slot tuples."""
    L = dvf_to_dlf(VectorField(support.grid_torus(3, 3), frozenset({("v00", "h00")})))
    original = SurfaceComplex.__dict__["_darts"]
    built, reads = [], []

    def build(self):
        built.append(self.name)
        return original.func(self)

    darts = cached_property(build)
    darts.__set_name__(SurfaceComplex, "_darts")

    def read(self):
        reads.append(self.name)
        return darts.__get__(self, SurfaceComplex)

    monkeypatch.setattr(SurfaceComplex, "_darts", property(read))
    monkeypatch.setattr(SurfaceComplex, "vertex_link_cycles", lambda self: pytest.fail())
    dlf_to_dvf(L)
    # The merged complex keeps the image's name; the image builds no table.
    assert built == [L.complex.name] and "_darts" not in vars(L.complex)
    assert reads == [L.complex.name]


def record_constructions(monkeypatch):
    """Lists the names of the complexes built through _from_checked, through
    the checking constructor (__post_init__) and of those validate() runs on."""
    calls = {"_from_checked": [], "__post_init__": [], "validate": []}
    from_checked = SurfaceComplex._from_checked

    def checked(cls, vertices, edges, faces, name):
        calls["_from_checked"].append(name)
        return from_checked(vertices, edges, faces, name)

    monkeypatch.setattr(SurfaceComplex, "_from_checked", classmethod(checked))
    for method in ("__post_init__", "validate"):
        def wrapper(self, original=getattr(SurfaceComplex, method), method=method):
            calls[method].append(self.name)
            return original(self)

        monkeypatch.setattr(SurfaceComplex, method, wrapper)
    return calls


def record_verdicts(monkeypatch):
    """Lists the complexes whose closed-surface verdict (the cached
    SurfaceComplex._problems that validate() copies) is computed."""
    computed = []
    compute = SurfaceComplex.__dict__["_problems"].func

    def counted(self):
        computed.append(self)
        return compute(self)

    verdict = cached_property(counted)
    verdict.__set_name__(SurfaceComplex, "_problems")
    monkeypatch.setattr(SurfaceComplex, "_problems", verdict)
    return computed


def test_image_builds_one_complex(monkeypatch):
    """dvf_to_dlf splits the quadrilaterals on plain maps and constructs
    only the image, not the bare refinement first, from cells it has
    checked: no constructor check runs.  On a complex validated first, as
    the CLI validates it, the bridge reads the verdict and computes none."""
    V = VectorField(support.grid_torus(3, 3), frozenset({("v00", "h00"), ("v11", "h11")}))
    assert V.complex.validate() == []
    calls = record_constructions(monkeypatch)
    verdicts = record_verdicts(monkeypatch)
    dvf_to_dlf(V)
    assert calls["_from_checked"] == [f"radial_{V.complex.name}"]
    assert calls["__post_init__"] == [] and verdicts == []


def test_factoring_builds_three_complexes_without_validate(monkeypatch):
    """dlf_to_dvf constructs the complex left after deleting the diagonals
    and the two factors, each once from cells it has checked, and checks
    radiality without validate()."""
    L = dvf_to_dlf(
        VectorField(support.grid_torus(3, 3), frozenset({("v00", "h00"), ("v11", "h11")}))
    )
    calls = record_constructions(monkeypatch)
    dlf_to_dvf(L)
    T = L.complex.name
    assert calls["_from_checked"] == [T, f"{T}_a", f"{T}_b"]
    assert calls["__post_init__"] == []
    # validate() counts components itself; no other method does.
    assert calls["validate"] == []


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
# The model (tests/model.py) builds the radial refinement from its
# definition and applies one split or one edge deletion per pair, picking
# each new name against the live cells; it then checks radiality with its
# own validate, a two-colouring and its link cycles, and reads each factor
# off its own link cycles.  The library's bridge must give the same fields
# and refuse with the same exception and message.


def assert_same_image(V):
    got = model.outcome(lambda: model.field_of(dvf_to_dlf(V)), OperationError)
    assert got == model.outcome(lambda: model.dvf_to_dlf(model.field_of(V)))


def assert_same_factors(L):
    got = model.outcome(lambda: tuple(map(model.field_of, dlf_to_dvf(L))), OperationError)
    assert got == model.outcome(lambda: model.dlf_to_dvf(model.field_of(L)))
    return got


def differential_corpus():
    return [b() for b in support.all_seed_builders()] + support.random_corpus(
        821, 40, max_moves=4
    )


def test_is_radial_matches_reference():
    rng = random.Random(824)
    cases = [SurfaceComplex(frozenset(), {}, {})]
    for S in differential_corpus():
        R = radial_decomposition(S).complex
        image = dvf_to_dlf(
            VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
        ).complex
        cases += [S, R, image]
        diagonals = sorted(e for e in image.edges if e.startswith("d_"))
        if diagonals:
            cases.append(delete_edge_merge_faces(image, diagonals[0], "merged"))
    R = radial_decomposition(support.tetra()).complex
    cases.append(support.disjoint_union(R, support.suffixed(R, "_z")))
    cases.append(SurfaceComplex(R.vertices | {"lone"}, R.edges, R.faces))
    # Each edge of the removed quadrilateral then occurs once.
    cases.append(SurfaceComplex(R.vertices, R.edges, dict(sorted(R.faces.items())[1:])))
    # Swapping one occurrence between two quadrilaterals breaks both walks,
    # at two corners each, and keeps one link cycle per vertex.
    for (f, i), (g, j) in ((("q_e12", 0), ("q_e13", 1)), (("q_e13", 3), ("q_e34", 0))):
        walks = {f: list(R.faces[f]), g: list(R.faces[g])}
        walks[f][i], walks[g][j] = walks[g][j], walks[f][i]
        T = SurfaceComplex(R.vertices, R.edges, {**R.faces, f: walks[f], g: walks[g]})
        assert all(len(cycles) == 1 for cycles in T.vertex_link_cycles().values())
        cases.append(T)
    cases.append(radial_decomposition(support.pinched_spheres()).complex)
    verdicts = Counter()
    for T in cases:
        verdict = is_radial(T)
        assert verdict == model.is_radial(model.complex_of(T)), T.name
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_edge_slots_agree_with_edge_occurrences():
    # The cached index against a scan of every walk for each edge.
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
        assert S.occurrence_index.keys() == S.edges.keys()
    # Edge a occurs once; b occurs twice on one face.
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": ((1, "a"), (1, "b"), (1, "b"))},
    )
    assert S.occurrence_index == {"a": (("F", 0),), "b": (("F", 1), ("F", 2))}
    assert S.edge_occurrences("b") == [("F", 1), ("F", 2)]


def test_bridge_matches_move_by_move_on_random_fields():
    rng = random.Random(822)
    corpus = differential_corpus()
    assert any(support.is_loop(S, e) for S in corpus for e in S.edges)
    assert any(
        S.faces[f1][i1][0] == S.faces[f2][i2][0]
        for S in corpus
        for (f1, i1), (f2, i2) in S.occurrence_index.values()
    )
    for S in corpus:
        for _ in range(4):
            V = VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
            assert_same_image(V)
            assert assert_same_factors(dvf_to_dlf(V))[0] == "ok"


def test_anchor_corner_on_doubled_occurrences():
    """The anchor is the first corner of q_<e> on the other cell: corner 0
    or 2 for a vertex, 1 or 3 for a face.  A loop puts its vertex at
    corners 0 and 2, an edge twice on one face puts the face at 1 and 3."""
    cases = [
        (support.proj_plane(), ("v", "a"), (0, 2)),  # a loop
        (support.proj_plane(), ("a", "F"), (1, 3)),  # a twice on F, one sign
        (support.slit_sphere(), ("e", "F"), (1, 3)),  # e twice on F, both signs
        (support.slit_sphere(), ("u", "e"), (0,)),
        (support.slit_sphere(), ("w", "e"), (2,)),
    ]
    for S, pair, at in cases:
        e, other = (pair[1], pair[0]) if pair[0] in S.vertices else pair
        T = radial_decomposition(S).complex
        corners = [T.corner_vertex(f"q_{e}", i) for i in range(4)]
        assert tuple(i for i, c in enumerate(corners) if c == f"w_{other}") == at
        assert_same_image(VectorField(S, frozenset({pair})))


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
        matched_vertices = {v for v, _e in image.matching}
        matched_edges = {e for _v, e in image.matching}
        free = [
            (v, e)
            for v, e in support.line_field_pairs(image.complex)
            if v not in matched_vertices and e not in matched_edges
        ]
        if free:
            cases.append(LineField(image.complex, image.matching | {rng.choice(free)}))
        for L in cases:
            got = assert_same_factors(L)
            if got[0] == "ok":
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
    assert assert_same_factors(X)[0] == "ok"
    A, _B = dlf_to_dvf(X)
    assert {"m_d_a_2", "m_d_a_0"} <= set(A.complex.edges)


def test_bridge_picks_a_suffix_only_for_a_taken_name(monkeypatch):
    """Each new cell's plain name is tried first; radial._fresh_ids runs
    only for a step one of whose plain names is taken, on that step's
    names, so it picks the ids test_bridge_identifier_collisions_match_move_by_move
    pins."""
    bases, fresh_ids = [], radial._fresh_ids

    def counted(vertices, edges, faces, *names):
        bases.append(names)
        return fresh_ids(vertices, edges, faces, *names)

    monkeypatch.setattr(radial, "_fresh_ids", counted)
    V = support.serpentine_torus(4, 4)[0]
    factors = dlf_to_dvf(dvf_to_dlf(V))
    assert any(complexes_isomorphic(X.complex, V.complex) for X in factors)
    assert bases == []

    S = collision_sphere()
    live = dvf_to_dlf(VectorField(S, frozenset({("u", "a"), ("w", "a_0")})))
    assert bases == [("d_a", "q_a_0", "q_a_1")]  # q_a_0 is live
    assert {"q_a_0_2", "q_a_1", "q_a_0_0", "q_a_0_1"} <= set(live.complex.faces)
    dead = dvf_to_dlf(VectorField(S, frozenset({("a_0", "f1"), ("u", "a")})))
    assert len(bases) == 1 and len(dead.complex.faces["q_a_0"]) == 3
    A, _B = dlf_to_dvf(renamed(live, {"w_f2": "m_d_a", "q_a_1": "m_d_a_0"}))
    assert bases[1:] == [("m_d_a",)]  # d_a merges away the face m_d_a_0 first
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
