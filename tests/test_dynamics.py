import random

import pytest

import support
from linefields import (
    Crossing,
    CyclicFieldError,
    LineField,
    LPath,
    OperationError,
    Separatrix,
    closed_l_path,
    corridors_from,
    critical_cells,
    l_paths,
    ms_decomposition,
    topological_graph,
    validate_line_field,
)


def two_pair_tetra():
    return LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")}))


# ---- closed paths --------------------------------------------------------


def test_matched_loop_closes_immediately():
    L = LineField(support.torus_one(), frozenset({("v", "a")}))
    closed = closed_l_path(L)
    assert closed == LPath(("v", "v"), ("a",))
    assert closed.is_closed()
    assert L.closed_path() is not None


def test_triangle_cycle_is_found_and_rotated():
    L = LineField(
        support.tetra(),
        frozenset({("v2", "e23"), ("v3", "e13"), ("v1", "e12")}),
    )
    assert closed_l_path(L) == LPath(("v1", "v2", "v3", "v1"), ("e12", "e23", "e13"))


def test_two_pair_field_is_acyclic():
    assert closed_l_path(two_pair_tetra()) is None
    assert two_pair_tetra().closed_path() is None


def test_cyclic_error_carries_witness():
    L = LineField(support.torus_one(), frozenset({("v", "a")}))
    with pytest.raises(CyclicFieldError) as info:
        ms_decomposition(L)
    assert info.value.witness == LPath(("v", "v"), ("a",))


# ---- L-path queries ------------------------------------------------------


def test_chain_prefix_is_the_only_path():
    L = two_pair_tetra()
    assert l_paths(L, "v1", "v3") == [LPath(("v1", "v2", "v3"), ("e12", "e23"))]
    assert l_paths(L, "v2", "v3") == [LPath(("v2", "v3"), ("e23",))]


def test_paths_do_not_run_backwards():
    L = two_pair_tetra()
    assert l_paths(L, "v3", "v1") == []
    assert l_paths(L, "v1", "v4") == []


def test_trivial_path_exists():
    L = two_pair_tetra()
    assert l_paths(L, "v1", "v1") == [LPath(("v1",), ())]


def test_path_query_rejects_unknown_vertex():
    with pytest.raises(OperationError, match="not a vertex"):
        l_paths(two_pair_tetra(), "v1", "nope")


# ---- topological graph ---------------------------------------------------


def test_graph_of_empty_field_on_tetrahedron():
    graph = topological_graph(LineField(support.tetra()))
    assert len(graph.vertices) == 8
    assert len(graph.edges) == 12
    for sep in graph.edges:
        assert sep.path.is_trivial()
    assert graph.multiplicity("f123", "v1") == 1
    assert graph.multiplicity("f123", "v4") == 0


def test_graph_of_two_pair_field():
    graph = topological_graph(two_pair_tetra())
    assert graph.vertices == ("f123", "f134", "v3", "v4")
    assert graph.edges == (
        Separatrix("f123", "v3", 2, LPath(("v3",), ())),
        Separatrix("f134", "v3", 0, LPath(("v1", "v2", "v3"), ("e12", "e23"))),
        Separatrix("f134", "v3", 1, LPath(("v3",), ())),
        Separatrix("f134", "v4", 2, LPath(("v4",), ())),
    )
    assert graph.multiplicity("f134", "v3") == 2


def test_graph_drops_chains_touching_the_walk():
    # Both corner chains of f123 use edges on its own walk; only the v3
    # corner survives.
    graph = topological_graph(two_pair_tetra())
    assert [s for s in graph.edges if s.source == "f123"] == [
        Separatrix("f123", "v3", 2, LPath(("v3",), ()))
    ]


# ---- corridors -----------------------------------------------------------


def test_corridors_on_square_torus_return_home():
    L = LineField(support.torus_one())
    out = corridors_from(L, "F")
    assert len(out) == 4
    for corr in out:
        assert corr.start == "F" and corr.end == "F"
        assert corr.interior == ()
        assert len(corr.crossings) == 1
    assert out[0].crossings == (Crossing("a", ("F", 0), ("F", 2)),)
    assert out[1].crossings == (Crossing("b", ("F", 1), ("F", 3)),)


def test_corridors_of_empty_field_are_single_crossings():
    L = LineField(support.tetra())
    out = corridors_from(L, "f123")
    assert [(c.end, c.crossings) for c in out] == [
        ("f124", (Crossing("e12", ("f123", 0), ("f124", 2)),)),
        ("f234", (Crossing("e23", ("f123", 1), ("f234", 2)),)),
        ("f134", (Crossing("e13", ("f123", 2), ("f134", 0)),)),
    ]


def test_corridor_crosses_single_unmatched_edge():
    out = corridors_from(two_pair_tetra(), "f123")
    assert len(out) == 1
    assert out[0].start == "f123"
    assert out[0].end == "f134"
    assert out[0].crossings == (Crossing("e13", ("f123", 2), ("f134", 0)),)
    assert out[0].interior == ()


def test_corridor_tunnels_through_regular_faces():
    out = corridors_from(two_pair_tetra(), "f134")
    assert len(out) == 3
    assert [c.end for c in out] == ["f123", "f134", "f134"]
    long = out[1]
    assert long.crossings == (
        Crossing("e34", ("f134", 1), ("f234", 1)),
        Crossing("e24", ("f234", 0), ("f124", 1)),
        Crossing("e14", ("f124", 0), ("f134", 2)),
    )
    assert long.interior == ("f234", "f124")
    back = out[2]
    assert back.interior == ("f124", "f234")


def test_corridors_need_a_critical_face():
    with pytest.raises(OperationError, match="not critical"):
        corridors_from(two_pair_tetra(), "f124")
    with pytest.raises(OperationError, match="not a face"):
        corridors_from(two_pair_tetra(), "v1")


def test_fully_matched_face_has_no_corridors():
    L = LineField(support.theta_sphere(), frozenset({("u", "a"), ("w", "b")}))
    assert len(L._unmatched["fab"]) == 0
    assert corridors_from(L, "fab") == []


# ---- closed corridors and the decomposition ------------------------------


def test_decomposition_of_two_pair_field():
    report = ms_decomposition(two_pair_tetra())
    assert report.regions == 2
    assert len(report.graph.edges) == 4
    assert len(report.corridors) == 4
    assert report.closed_corridors == ()
    assert report.flags == ()


def test_decomposition_of_empty_field_on_tetrahedron():
    report = ms_decomposition(LineField(support.tetra()))
    assert report.regions == 6
    assert len(report.graph.edges) == 12
    assert len(report.corridors) == 12


def test_decomposition_of_empty_field_on_torus():
    report = ms_decomposition(LineField(support.torus_one()))
    assert report.regions == 2
    assert len(report.graph.edges) == 4
    assert report.flags == ()


def test_decomposition_of_two_faced_sphere():
    report = ms_decomposition(LineField(support.disk_sphere()))
    assert report.regions == 1
    assert len(report.graph.edges) == 2
    assert [c.end for c in report.corridors] == ["s", "n"]


def test_slit_sphere_is_periodic():
    report = ms_decomposition(LineField(support.slit_sphere()))
    assert report.regions == 0
    assert report.graph.edges == ()
    assert report.corridors == ()
    assert len(report.closed_corridors) == 1
    assert report.closed_corridors[0].faces == ("F",)
    assert report.closed_corridors[0].crossings == (Crossing("e", ("F", 0), ("F", 1)),)
    assert report.flags == ("periodic component",)


def test_theta_sphere_forms_one_closed_band():
    report = ms_decomposition(LineField(support.theta_sphere()))
    assert report.regions == 0
    assert len(report.closed_corridors) == 1
    assert sorted(report.closed_corridors[0].faces) == ["fab", "fbc", "fca"]
    assert report.flags == ("periodic component",)


def test_scan_finds_cycles_of_cyclic_fields():
    L = LineField(
        support.grid_torus(2, 2),
        frozenset(
            {("v00", "h00"), ("v01", "h01"), ("v10", "h10"), ("v11", "h11")}
        ),
    )
    assert validate_line_field(L) == []
    assert L.closed_path() is not None
    with pytest.raises(CyclicFieldError):
        ms_decomposition(L)
    closed = list(L.corridors()[1])
    assert len(closed) == 2
    for cycle in closed:
        assert len(cycle.crossings) == 2
        assert all(e.startswith("u") for e in (c.edge for c in cycle.crossings))


# ---- structural properties -----------------------------------------------


def sampled_line_fields(corpus_seed, rng_seed, count, keep=0.45):
    rng = random.Random(rng_seed)
    for S in support.random_corpus(corpus_seed, count, max_moves=2):
        yield LineField(S, support.sample_matching(support.line_field_pairs(S), rng, keep))


def test_separatrices_are_sound_on_random_fields():
    for L in sampled_line_fields(701, 702, 8):
        if L.closed_path() is not None:
            continue
        S = L.complex
        crit = critical_cells(L)
        graph = topological_graph(L)
        assert graph.vertices == tuple(sorted(crit))
        matched = L.matched_edges()
        for sep in graph.edges:
            assert sep.source in S.faces and sep.source in crit
            assert sep.target in S.vertices and sep.target in crit
            assert S.faces[sep.source][sep.occurrence][1] not in matched
            path = sep.path
            assert path.vertices[0] == S.corner_vertex(sep.source, sep.occurrence)
            assert path.vertices[-1] == sep.target
            assert path.vertices[-1] not in L.matched_vertices()
            for i, e in enumerate(path.edges):
                assert (path.vertices[i], e) in L.matching
                tail, head = S.edges[e]
                assert path.vertices[i + 1] == (head if path.vertices[i] == tail else tail)
        for f in sorted(c for c in crit if c in S.faces):
            outgoing = sum(1 for sep in graph.edges if sep.source == f)
            assert outgoing == len(L._unmatched[f])


def test_corridors_are_sound_on_random_fields():
    for L in sampled_line_fields(703, 704, 8):
        S = L.complex
        matched = L.matched_edges()
        counts = {f: len(L._unmatched[f]) for f in S.faces}
        for f in sorted(S.faces):
            if counts[f] == 2:
                continue
            for corr in corridors_from(L, f):
                assert corr.start == f
                assert counts[corr.end] != 2
                assert all(counts[g] == 2 for g in corr.interior)
                assert len(corr.interior) == len(corr.crossings) - 1
                for crossing in corr.crossings:
                    assert crossing.edge not in matched
                    for face, pos in (crossing.depart, crossing.arrive):
                        assert S.faces[face][pos][1] == crossing.edge
                    assert crossing.depart != crossing.arrive


def test_every_region_is_traced_from_both_ends():
    for L in sampled_line_fields(705, 706, 8):
        if L.closed_path() is not None:
            continue
        report = ms_decomposition(L)
        keys = {
            tuple((c.depart, c.arrive) for c in corr.crossings)
            for corr in report.corridors
        }
        for key in keys:
            assert tuple((b, a) for a, b in reversed(key)) in keys
        assert report.regions <= len(report.corridors)
        if all(
            len(L._unmatched[f]) == 2 for f in L.complex.faces
        ):
            assert report.corridors == ()
            assert report.closed_corridors != ()
            assert report.flags == ("periodic component",)


def test_loop_free_fields_agree_with_vector_field_cycles():
    from linefields import VectorField

    for L in sampled_line_fields(707, 708, 10):
        if any(
            L.complex.edges[e][0] == L.complex.edges[e][1]
            for e in L.matched_edges()
        ):
            continue
        assert (L.closed_path() is None) == (
            VectorField(L.complex, L.matching).closed_path() is None
        )
