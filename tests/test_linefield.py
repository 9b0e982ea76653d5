import random

import pytest

import support
from linefields import (
    LineField,
    OperationError,
    cancel_vertex_face,
    corridors_from,
    critical_cells,
    merge_critical_faces,
    validate_line_field,
)


def test_empty_matching_on_tetrahedron():
    L = LineField(support.tetra())
    crit = critical_cells(L)
    for v in ("v1", "v2", "v3", "v4"):
        assert crit[v] == 2
    for f in ("f123", "f124", "f134", "f234"):
        assert crit[f] == -1
    assert sum(L.doubled_critical().values()) == 4


def test_empty_matching_on_torus():
    L = LineField(support.torus_one())
    assert critical_cells(L) == {"v": 2, "F": -2}
    assert sum(L.doubled_critical().values()) == 0


def test_empty_matching_on_two_faced_sphere():
    L = LineField(support.disk_sphere())
    assert critical_cells(L) == {"v": 2, "n": 1, "s": 1}
    assert sum(L.doubled_critical().values()) == 4


def test_two_pair_matching_on_tetrahedron():
    L = LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")}))
    assert validate_line_field(L) == []
    assert len(L._unmatched["f123"]) == 1
    assert len(L._unmatched["f124"]) == 2
    assert len(L._unmatched["f134"]) == 3
    assert len(L._unmatched["f234"]) == 2
    assert critical_cells(L) == {"v3": 2, "v4": 2, "f123": 1, "f134": -1}
    assert sum(L.doubled_critical().values()) == 4


def test_unmatched_boundary_count_unknown_face():
    """Operations that read a face's unmatched boundary count refuse a face
    the complex does not have, by name, rather than fail on a lookup."""
    L = LineField(support.tetra())
    for call in (
        lambda: corridors_from(L, "nope"),
        lambda: merge_critical_faces(L, "nope", "f123"),
        lambda: merge_critical_faces(L, "f123", "nope"),
        lambda: cancel_vertex_face(L, "v1", "nope"),
    ):
        with pytest.raises(OperationError, match="nope is not a face"):
            call()


def test_validate_accepts_loop_pair():
    L = LineField(support.torus_one(), frozenset({("v", "a")}))
    assert validate_line_field(L) == []


def test_validate_rejects_non_incident_pair():
    L = LineField(support.tetra(), frozenset({("v1", "e34")}))
    report = validate_line_field(L)
    assert len(report) == 1
    assert "not an endpoint" in report[0]


def test_validate_rejects_reused_vertex():
    L = LineField(support.tetra(), frozenset({("v1", "e12"), ("v1", "e13")}))
    assert any("vertex v1" in p for p in validate_line_field(L))


def test_validate_rejects_reused_edge():
    L = LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e12")}))
    assert any("edge e12" in p for p in validate_line_field(L))


def test_validate_rejects_unknown_cells():
    L = LineField(support.tetra(), frozenset({("ghost", "e12")}))
    assert any("unknown vertex" in p for p in validate_line_field(L))
    L = LineField(support.tetra(), frozenset({("v1", "ghost")}))
    assert any("unknown edge" in p for p in validate_line_field(L))


def test_edges_never_critical_and_vertices_track_matching():
    rng = random.Random(401)
    for S in support.random_corpus(seed=401, count=25):
        pairs = support.line_field_pairs(S)
        L = LineField(S, support.sample_matching(pairs, rng))
        crit = critical_cells(L)
        assert not any(c in S.edges for c in crit)
        assert {c for c in crit if c in S.vertices} == S.vertices - {v for v, _e in L.matching}


def test_doubled_sum_is_twice_euler_characteristic():
    rng = random.Random(402)
    for S in support.random_corpus(seed=402, count=40):
        for _ in range(4):
            L = LineField(S, support.sample_matching(support.line_field_pairs(S), rng))
            assert validate_line_field(L) == []
            assert sum(L.doubled_critical().values()) == 2 * S.euler_characteristic()


def test_boundary_counts_sum_to_unmatched_occurrences():
    # Every edge contributes its two occurrences, so the face counts add up
    # to twice the number of unmatched edges.
    rng = random.Random(403)
    for S in support.random_corpus(seed=403, count=25):
        L = LineField(S, support.sample_matching(support.line_field_pairs(S), rng))
        total = sum(len(L._unmatched[f]) for f in S.faces)
        assert total == 2 * (len(S.edges) - len(L.matching))


def test_adding_a_pair_preserves_the_sum():
    rng = random.Random(404)
    for S in support.random_corpus(seed=404, count=20):
        pairs = support.line_field_pairs(S)
        L = LineField(S, support.sample_matching(pairs, rng, keep=0.3))
        matched_vertices = {v for v, _e in L.matching}
        matched_edges = {e for _v, e in L.matching}
        free = [(v, e) for v, e in pairs if v not in matched_vertices and e not in matched_edges]
        for v, e in free:
            extended = LineField(S, L.matching | {(v, e)})
            assert sum(extended.doubled_critical().values()) == sum(L.doubled_critical().values())


def test_matching_lookups_agree_with_pairs():
    rng = random.Random(405)
    for S in support.random_corpus(seed=405, count=20):
        L = LineField(S, support.sample_matching(support.line_field_pairs(S), rng))
        for v in S.vertices:
            want = [e for u, e in L.matching if u == v]
            assert L.upper_of(v) == (want[0] if want else None)
        for e in S.edges:
            want = [v for v, f in L.matching if f == e]
            assert L.lower_of(e) == (want[0] if want else None)
        # The cached lookups leave equality alone.
        assert L == LineField(S, L.matching)
