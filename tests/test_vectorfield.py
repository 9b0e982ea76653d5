import random

import pytest

from isomorphism import line_fields_isomorphic
import model
import support
from linefields import (
    CancellationError,
    CyclicFieldError,
    LineField,
    OperationError,
    VectorField,
    cancel_dvf,
    critical_cells_dvf,
    dualize,
    validate_vector_field,
)


def assert_valid_xpath(V, path):
    """Check a path witness against the matching and the complex directly."""
    S = V.complex
    assert len(path.witnesses) == len(path.cells) - 1
    for cell in path.cells:
        assert S.dim_of(cell) == path.dimension
    for i, (tau, key) in enumerate(path.witnesses):
        cur, nxt = path.cells[i], path.cells[i + 1]
        assert (cur, tau) in V.matching
        assert nxt != cur
        if path.dimension == 0:
            assert S.edges[tau][key] == nxt
        else:
            assert S.faces[tau][key][1] == nxt
    if path.witnesses:
        assert V.upper_of(path.cells[-1]) is None or path.cells[0] == path.cells[-1]


# ---- matching basics -----------------------------------------------------


def test_construction_reorders_pairs_by_dimension():
    V = VectorField(support.tetra(), frozenset({("e12", "v1"), ("e23", "f123")}))
    assert V.matching == frozenset({("v1", "e12"), ("e23", "f123")})
    assert V.upper_of("v1") == "e12"
    assert V.lower_of("f123") == "e23"
    assert V.upper_of("v2") is None


def test_matching_lookups_agree_with_pairs():
    rng = random.Random(406)
    for S in support.random_corpus(seed=406, count=20):
        V = VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
        for cell, _d in support.cells(S):
            up = [u for lo, u in V.matching if lo == cell]
            lo = [lo for lo, u in V.matching if u == cell]
            assert V.upper_of(cell) == (up[0] if up else None)
            assert V.lower_of(cell) == (lo[0] if lo else None)
        assert V.matched_cells() == frozenset(c for pair in V.matching for c in pair)
        assert isinstance(V.matched_cells(), frozenset)
        assert V == VectorField(S, V.matching)


def test_critical_cells_empty_matching():
    V = VectorField(support.tetra())
    crit = critical_cells_dvf(V)
    assert len(crit) == 14
    for v in ("v1", "v2", "v3", "v4"):
        assert crit[v] == 1
    for e in ("e12", "e13", "e14", "e23", "e24", "e34"):
        assert crit[e] == -1
    for f in ("f123", "f124", "f134", "f234"):
        assert crit[f] == 1
    assert sum(critical_cells_dvf(V).values()) == 2


def test_critical_cells_drop_matched_pair():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    crit = critical_cells_dvf(V)
    assert len(crit) == 12
    assert "v1" not in crit and "e12" not in crit
    assert sum(critical_cells_dvf(V).values()) == 2


def test_validate_accepts_mixed_field():
    V = VectorField(support.tetra(), frozenset({("v1", "e12"), ("e23", "f123")}))
    assert validate_vector_field(V) == []


def test_validate_reports_dimension_gap():
    V = VectorField(support.tetra(), frozenset({("v1", "f123")}))
    assert validate_vector_field(V) == [
        "pair (v1, f123): dimensions differ by 2"
    ]


def test_validate_reports_equal_dimensions():
    V = VectorField(support.tetra(), frozenset({("e12", "e13")}))
    assert validate_vector_field(V) == [
        "pair (e12, e13): dimensions differ by 0"
    ]


def test_validate_reports_non_incident_pairs():
    V = VectorField(support.tetra(), frozenset({("v3", "e12"), ("e14", "f123")}))
    assert validate_vector_field(V) == [
        "pair (e14, f123): e14 is not on the boundary walk of f123",
        "pair (v3, e12): v3 is not an endpoint of e12",
    ]


def test_validate_reports_reused_cell():
    V = VectorField(support.tetra(), frozenset({("v1", "e12"), ("v1", "e13")}))
    assert validate_vector_field(V) == ["cell v1 appears in 2 pairs"]


def test_validate_reports_unknown_cell():
    V = VectorField(support.tetra(), frozenset({("x", "e12")}))
    assert validate_vector_field(V) == [
        "pair (x, e12) references unknown cell x"
    ]
    V = VectorField(support.tetra(), frozenset({("v1", "x")}))
    assert validate_vector_field(V) == ["pair (v1, x) references unknown cell x"]


def test_validate_accepts_loop_pair():
    V = VectorField(support.torus_one(), frozenset({("v", "a")}))
    assert validate_vector_field(V) == []


# ---- closed X-paths ------------------------------------------------------


def test_vertex_cycle_is_detected():
    V = VectorField(
        support.tetra(),
        frozenset({("v1", "e12"), ("v2", "e23"), ("v3", "e13")}),
    )
    closed = V.closed_path()
    assert closed is not None
    assert closed.dimension == 0
    assert len(closed.cells) > 1 and closed.cells[0] == closed.cells[-1]
    assert closed.cells == ("v1", "v2", "v3", "v1")
    assert_valid_xpath(V, closed)
    assert V.closed_path() is not None


def test_edge_cycle_is_detected():
    V = VectorField(
        support.theta_sphere(),
        frozenset({("a", "fab"), ("b", "fbc"), ("c", "fca")}),
    )
    assert validate_vector_field(V) == []
    closed = V.closed_path()
    assert closed is not None
    assert closed.dimension == 1
    assert closed.cells == ("a", "b", "c", "a")
    assert_valid_xpath(V, closed)


def test_matched_loop_is_acyclic_for_vector_fields():
    # An X-path may never step back into the cell it came from, so a loop
    # matched at its only endpoint leads nowhere; the corresponding line
    # field is cyclic.
    S = support.torus_one()
    assert VectorField(S, frozenset({("v", "a")})).closed_path() is None
    assert LineField(S, frozenset({("v", "a")})).closed_path() is not None


def test_cyclic_field_error_carries_witness():
    V = VectorField(
        support.tetra(),
        frozenset({("v1", "e12"), ("v2", "e23"), ("v3", "e13")}),
    )
    with pytest.raises(CyclicFieldError) as info:
        list(V.paths("e14", "v4"))
    witness = info.value.witness
    assert len(witness.cells) > 1 and witness.cells[0] == witness.cells[-1]


# ---- path queries --------------------------------------------------------


def test_single_path_through_matched_vertex():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    found = list(V.paths("e13", "v2"))
    assert len(found) == 1
    assert found[0].cells == ("v1", "v2")
    assert found[0].witnesses == (("e12", 1),)
    assert_valid_xpath(V, found[0])
    assert V.count_paths("e13", "v2") == 1


def test_trivial_path_to_incident_vertex():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    found = list(V.paths("e13", "v3"))
    assert len(found) == 1
    assert not found[0].steps
    assert found[0].cells == ("v3",)
    assert V.count_paths("e13", "v3") == 1


def test_no_path_to_far_vertex():
    V = VectorField(support.tetra())
    assert list(V.paths("e12", "v3")) == []
    assert V.count_paths("e12", "v3") == 0


def test_path_query_rejects_matched_endpoint():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    with pytest.raises(OperationError, match="matched, not critical"):
        list(V.paths("e12", "v3"))


def test_path_query_rejects_dimension_mismatch():
    V = VectorField(support.tetra())
    with pytest.raises(OperationError, match="dimension mismatch"):
        list(V.paths("v2", "v3"))


def test_path_query_rejects_unknown_cell():
    V = VectorField(support.tetra())
    with pytest.raises(OperationError, match="not a cell"):
        V.count_paths("e12", "nope")


@pytest.mark.parametrize(
    "pairs, source, target, error, message",
    [
        ((), "e12", "nope", OperationError, "not a cell"),
        ((), "v2", "v3", OperationError, "dimension mismatch"),
        ((("v1", "e12"),), "e12", "v3", OperationError, "matched, not critical"),
        (
            (("v1", "e12"), ("v2", "e23"), ("v3", "e13")),
            "e14",
            "v4",
            CyclicFieldError,
            "closed X-path",
        ),
    ],
    ids=["not-a-cell", "dimension-mismatch", "matched-cell", "cyclic-field"],
)
def test_path_query_refuses_when_called(pairs, source, target, error, message):
    """V.paths refuses a bad query at the call, before any path is read."""
    V = VectorField(support.tetra(), frozenset(pairs))
    with pytest.raises(error, match=message):
        V.paths(source, target)


def test_paths_are_deterministic():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    assert list(V.paths("e13", "v2")) == list(V.paths("e13", "v2"))


# ---- topological graph ---------------------------------------------------


def test_topological_graph_of_empty_field_on_tetrahedron():
    V = VectorField(support.tetra())
    graph = V.graph()
    assert len(graph.vertices) == 14
    assert len(graph.edges) == 24
    assert graph.multiplicity("e12", "v1") == 1
    assert graph.multiplicity("e12", "v2") == 1
    assert graph.multiplicity("f123", "e12") == 1
    assert graph.multiplicity("f123", "e14") == 0
    for sep in graph.edges:
        assert not sep.path.steps
        assert sep.target == sep.path.cells[0]


def test_topological_graph_counts_loop_occurrences_twice():
    V = VectorField(support.torus_one())
    graph = V.graph()
    assert len(graph.edges) == 8
    assert graph.multiplicity("a", "v") == 2
    assert graph.multiplicity("F", "a") == 2
    assert graph.multiplicity("F", "b") == 2


# ---- cancellation --------------------------------------------------------


def test_cancel_trivial_pair():
    V = VectorField(support.tetra())
    out = cancel_dvf(V, "e12", "v1")
    assert out.matching == frozenset({("v1", "e12")})
    assert len(critical_cells_dvf(out)) == 12


def test_cancel_reverses_single_step_path():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    out = cancel_dvf(V, "e13", "v2")
    assert out.matching == frozenset({("v2", "e12"), ("v1", "e13")})
    assert validate_vector_field(out) == []
    assert out.closed_path() is None
    assert len(critical_cells_dvf(out)) == 10
    assert sum(critical_cells_dvf(out).values()) == 2


def test_cancel_requires_some_path():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    with pytest.raises(CancellationError, match="no X-path from e34 to v2"):
        cancel_dvf(V, "e34", "v2")


def test_cancel_counts_loop_witnesses_separately():
    V = VectorField(support.torus_one())
    with pytest.raises(CancellationError, match="found 2"):
        cancel_dvf(V, "F", "a")


# ---- duality -------------------------------------------------------------


def test_dualize_swaps_pair_roles():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    W = dualize(V)
    assert W.matching == frozenset({("e12", "v1")})
    assert W.complex.dim_of("v1") == 2
    assert len(critical_cells_dvf(W)) == len(critical_cells_dvf(V))
    assert sum(critical_cells_dvf(W).values()) == sum(critical_cells_dvf(V).values())


def test_dualize_twice_round_trips():
    V = VectorField(support.tetra(), frozenset({("v1", "e12"), ("e23", "f123")}))
    W = dualize(dualize(V))
    assert W.matching == V.matching
    assert line_fields_isomorphic(W, V)


def test_dual_path_counts_match():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    W = dualize(V)
    assert V.count_paths("e13", "v2") == W.count_paths("v2", "e13") == 1
    assert V.count_paths("f134", "e34") == W.count_paths("e34", "f134")


def test_dual_path_counts_match_on_random_fields():
    rng = random.Random(601)
    for S in support.random_corpus(602, 6, max_moves=2):
        V = VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng, keep=0.4))
        if validate_vector_field(V) or V.closed_path() is not None:
            continue
        W = dualize(V)
        assert W.closed_path() is None
        crit = sorted(critical_cells_dvf(V))
        uppers = [c for c in crit if S.dim_of(c) >= 1]
        lowers = [c for c in crit if S.dim_of(c) <= 1]
        checked = 0
        for up in uppers:
            for lo in lowers:
                if S.dim_of(up) != S.dim_of(lo) + 1 or checked >= 12:
                    continue
                assert V.count_paths(up, lo) == W.count_paths(lo, up)
                checked += 1


# ---- comparison against the model's enumeration -----------------------------


def test_paths_agree_with_direct_search_on_seed_complexes():
    rng = random.Random(603)
    for builder in support.all_seed_builders():
        S = builder()
        pairs = support.vector_field_pairs(S)
        for _ in range(3):
            V = VectorField(S, support.sample_matching(pairs, rng, keep=0.35))
            if V.closed_path() is not None:
                continue
            crit = sorted(critical_cells_dvf(V))
            for source in crit:
                for target in crit:
                    if S.dim_of(source) != S.dim_of(target) + 1:
                        continue
                    found = list(V.paths(source, target))
                    for path in found:
                        assert_valid_xpath(V, path)
                    assert [(p.cells, p.witnesses) for p in found] == model.x_paths(
                        model.field_of(V), source, target)
                    assert V.count_paths(source, target) == len(found)


def test_graph_separatrices_are_sound_on_random_fields():
    rng = random.Random(604)
    for S in support.random_corpus(605, 5, max_moves=2):
        V = VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng, keep=0.4))
        if V.closed_path() is not None:
            continue
        crit = critical_cells_dvf(V)
        graph = V.graph()
        assert graph.vertices == tuple(sorted(crit))
        for sep in graph.edges:
            assert sep.source in crit and sep.target in crit
            assert S.dim_of(sep.source) == S.dim_of(sep.target) + 1
            assert_valid_xpath(V, sep.path)
            occs = (
                list(S.edges[sep.source])
                if sep.source in S.edges
                else [e for _s, e in S.faces[sep.source]]
            )
            assert occs[sep.occurrence] == sep.path.cells[0]


def test_euler_sum_matches_characteristic_on_random_fields():
    rng = random.Random(606)
    for S in support.random_corpus(607, 8, max_moves=3):
        pairs = support.vector_field_pairs(S)
        for _ in range(3):
            V = VectorField(S, support.sample_matching(pairs, rng))
            assert validate_vector_field(V) == []
            assert sum(critical_cells_dvf(V).values()) == S.euler_characteristic()
