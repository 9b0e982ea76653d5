import json
import random
from collections import Counter

import pytest

import model
import support
from linefields import (
    CancellationError,
    ClosedCorridor,
    Corridor,
    Crossing,
    CyclicFieldError,
    LineField,
    LPath,
    OperationError,
    Separatrix,
    TopologicalGraph,
    VectorField,
    corridors_from,
    critical_cells,
    graph_dot,
    merge_critical_faces,
    ms_decomposition,
    report_json,
    validate_line_field,
)
from linefields import dynamics, simplify


def two_pair_tetra():
    return LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")}))


# ---- closed paths --------------------------------------------------------


def test_matched_loop_closes_immediately():
    L = LineField(support.torus_one(), frozenset({("v", "a")}))
    closed = L.closed_path()
    assert closed == LPath(("v", "v"), ("a",))
    assert len(closed.cells) > 1 and closed.cells[0] == closed.cells[-1]
    assert L.closed_path() is not None


def test_triangle_cycle_is_found_and_rotated():
    L = LineField(
        support.tetra(),
        frozenset({("v2", "e23"), ("v3", "e13"), ("v1", "e12")}),
    )
    assert L.closed_path() == LPath(("v1", "v2", "v3", "v1"), ("e12", "e23", "e13"))


def test_two_pair_field_is_acyclic():
    assert two_pair_tetra().closed_path() is None
    assert two_pair_tetra().closed_path() is None


def test_cyclic_error_carries_witness():
    L = LineField(support.torus_one(), frozenset({("v", "a")}))
    with pytest.raises(CyclicFieldError) as info:
        ms_decomposition(L)
    assert info.value.witness == LPath(("v", "v"), ("a",))


# ---- L-path queries ------------------------------------------------------


def test_chain_prefix_is_the_only_path():
    L = two_pair_tetra()
    assert L.paths("v1", "v3") == [LPath(("v1", "v2", "v3"), ("e12", "e23"))]
    assert L.paths("v2", "v3") == [LPath(("v2", "v3"), ("e23",))]


def test_paths_do_not_run_backwards():
    L = two_pair_tetra()
    assert L.paths("v3", "v1") == []
    assert L.paths("v1", "v4") == []


def test_trivial_path_exists():
    L = two_pair_tetra()
    assert L.paths("v1", "v1") == [LPath(("v1",), ())]


def test_path_query_rejects_unknown_vertex():
    with pytest.raises(OperationError, match="not a vertex"):
        two_pair_tetra().paths("v1", "nope")


# ---- topological graph ---------------------------------------------------


def test_graph_of_empty_field_on_tetrahedron():
    graph = LineField(support.tetra()).graph()
    assert len(graph.vertices) == 8
    assert len(graph.edges) == 12
    for sep in graph.edges:
        assert not sep.path.steps
    assert graph.multiplicity("f123", "v1") == 1
    assert graph.multiplicity("f123", "v4") == 0


def test_graph_of_two_pair_field():
    graph = two_pair_tetra().graph()
    assert graph.vertices == ("f123", "f134", "v3", "v4")
    assert graph.edges == (
        Separatrix("f123", "v3", 2, LPath(("v3",), ())),
        Separatrix("f134", "v3", 0, LPath(("v1", "v2", "v3"), ("e12", "e23"))),
        Separatrix("f134", "v3", 1, LPath(("v3",), ())),
        Separatrix("f134", "v4", 2, LPath(("v4",), ())),
    )
    assert graph.multiplicity("f134", "v3") == 2


def test_separatrix_equality_with_other_types():
    sep = Separatrix("f123", "v3", 2, LPath(("v3",), ()))
    assert sep.__eq__(("f123", "v3", 2, LPath(("v3",), ()))) is NotImplemented
    assert sep != ("f123", "v3", 2, LPath(("v3",), ())) and sep != "f123"


def test_graph_drops_chains_touching_the_walk():
    # Both corner chains of f123 use edges on its own walk; only the v3
    # corner survives.
    graph = two_pair_tetra().graph()
    assert [s for s in graph.edges if s.source == "f123"] == [
        Separatrix("f123", "v3", 2, LPath(("v3",), ()))
    ]


def test_graph_is_built_once_and_holds_no_paths(monkeypatch):
    """On the snake field of a 24x24 torus, one chain through all 576
    vertices: neither DOT nor the JSON report builds a separatrix path,
    the report still prints the whole chain, and ms_decomposition and the
    report share one graph."""
    built, graphs = [], []

    def make_path(cells, steps):
        built.append(cells)
        return LPath(cells, steps)

    search = dynamics._search

    def counting_search(roots, steps, fold=None):
        if fold is not None:  # only the graph build folds here
            graphs.append(steps)
        return search(roots, steps, fold)

    monkeypatch.setattr(LineField, "_path", staticmethod(make_path))
    monkeypatch.setattr(dynamics, "_search", counting_search)
    L = support.serpentine_line_field(24, 24)
    graph_dot(L)
    assert built == [] and len(graphs) == 1
    graphs.clear()
    L = support.serpentine_line_field(24, 24)
    report = ms_decomposition(L)
    text = report_json(L)
    assert len(graphs) == 1 and L.graph() is report.graph
    assert built == []
    longest = max((s["vertices"] for s in json.loads(text)["separatrices"]), key=len)
    assert sorted(longest) == sorted(L.complex.vertices)
    graphs.clear()
    V, _head = support.serpentine_torus(6, 6)
    V.graph()
    report_json(V)
    assert len(graphs) == 1


def test_graph_keeps_walk_counts_only_after_branch_cells():
    """A line field's steps never branch, so its graph keeps no walk count;
    a vector field's graph keeps counts only for successors of branch
    cells, the only cells where a separatrix's rank picks a step."""
    graph = support.serpentine_line_field(8, 8).graph()
    assert graph.edges and all(sep._walks[1] == {} for sep in graph.edges)
    V, _head = support.serpentine_torus(6, 6)
    ways = V.graph().edges[0]._walks[1]
    after_branch = {nxt for out in V._steps.values() if len(out) > 1 for _label, nxt in out}
    assert ways and ways.keys() <= after_branch


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


class _CountedReads(dict):
    """A dict that counts its subscript reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_each_corridor_is_traced_once(monkeypatch):
    """corridors_from, the face merge and corridors() read one table: on a
    pillow, merging `top` with the end of each of its n corridors, then
    listing every corridor and those from `top` again, crosses each of the
    n corridors' 2n edges once, where tracing on every call would cross
    them n + 3 times.  The merges list the corridors from `top` once and
    then read them by end.  The tables take no part in equality or repr."""
    n = 6
    S = support.pillow(n)
    L = LineField(S)
    assert L.problems() == []
    fresh = LineField(S)
    S.__dict__["occurrence_index"] = index = _CountedReads(S.occurrence_index)
    ends = [c.end for c in corridors_from(L, "top")]
    assert ends == ["bottom"] * n
    listed = []
    monkeypatch.setattr(
        simplify, "corridors_from", lambda L, f: listed.append(f) or corridors_from(L, f)
    )
    for g in ends:
        with pytest.raises(CancellationError, match=f"found {n}"):
            merge_critical_faces(L, "top", g)
    assert listed == ["top"]
    assert "_corridors" not in vars(L)  # the merge reads only the corridors from top
    corridors, closed = L.corridors()
    assert corridors_from(L, "top") == list(corridors[n:])
    assert len(corridors) == 2 * n and closed == ()
    assert index.reads == sum(len(c.crossings) for c in corridors[n:]) == 2 * n
    assert L == fresh and repr(L) == repr(fresh)


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
        graph = L.graph()
        assert graph.vertices == tuple(sorted(crit))
        matched = {e for _v, e in L.matching}
        for sep in graph.edges:
            assert sep.source in S.faces and sep.source in crit
            assert sep.target in S.vertices and sep.target in crit
            assert S.faces[sep.source][sep.occurrence][1] not in matched
            path = sep.path
            assert path.vertices[0] == S.corner_vertex(sep.source, sep.occurrence)
            assert path.vertices[-1] == sep.target
            assert L.upper_of(path.vertices[-1]) is None
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
        matched = {e for _v, e in L.matching}
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
            for _v, e in L.matching
        ):
            continue
        assert (L.closed_path() is None) == (
            VectorField(L.complex, L.matching).closed_path() is None
        )


# ---- corridors against the model -----------------------------------------


def _tree_field(S, rng, depth_first):
    """A spanning-tree line field from a seeded root, each non-root vertex
    matched to the edge towards its parent: a breadth-first tree, or a
    depth-first one over shuffled neighbours."""
    adjacent = {v: [] for v in S.vertices}
    for e, (t, h) in sorted(S.edges.items()):
        adjacent[t].append((e, h))
        adjacent[h].append((e, t))
    root = rng.choice(sorted(S.vertices))
    pairs, seen, todo = set(), {root}, [root]
    while todo:
        u = todo.pop() if depth_first else todo.pop(0)
        for e, x in rng.sample(adjacent[u], len(adjacent[u])) if depth_first else adjacent[u]:
            if x not in seen:
                seen.add(x)
                pairs.add((x, e))
                todo.append(x)
    return LineField(S, frozenset(pairs))


def test_corridors_match_the_two_way_tracer():
    """Tracing each corridor once, from its first end, gives the model's
    corridors, traced from both ends, in the same order, and its closed
    corridors, and `regions` is the model's count up to direction.  Each
    corridor's reverse is listed exactly once, and none is its own."""
    from test_simplify import differential_fields

    rng = random.Random(841)
    fields = differential_fields()
    for S in support.random_corpus(842, 40, max_moves=4):
        fields += [LineField(S, support.sample_matching(support.line_field_pairs(S), rng, keep))
                   for keep in (0.3, 0.7)]
    for make in (support.grid_torus, support.grid_klein):
        for rows, cols in ((3, 4), (6, 6), (9, 7)):
            S = make(rows, cols)
            fields += [_tree_field(S, rng, False), _tree_field(S, rng, True),
                       support.forest_field(S, rng, 0.7)]
    acyclic = 0
    for L in fields:
        want, want_closed = model.corridors(model.field_of(L))
        want_regions = model.regions(want)
        got, got_closed = dynamics._all_corridors(L)
        assert [model.corridor_of(c) for c in got] == want
        assert [model.corridor_of(c) for c in got_closed] == want_closed
        assert len(got) // 2 == want_regions
        if L.closed_path() is None:
            assert ms_decomposition(L).regions == want_regions
            acyclic += 1
        keys = Counter(tuple((c.depart, c.arrive) for c in corr.crossings) for corr in got)
        for key in keys:
            back = tuple((b, a) for a, b in reversed(key))
            assert back != key and keys[back] == 1
    assert acyclic >= 200


# ---- records built on read -----------------------------------------------


def test_writers_build_no_crossing_and_no_separatrix(monkeypatch):
    """ms_decomposition, graph_dot and report_json read the graph's rows
    and the corridors' traces, so together they build no Crossing and no
    Separatrix.  A corridor builds its crossings on first read and keeps
    them; a graph separatrix walks its path on every read."""
    built = Counter()

    def counting(name, make):
        def counted(*args, **kwargs):
            built[name] += 1
            return make(*args, **kwargs)
        return counted

    monkeypatch.setattr(Crossing, "__init__", counting("Crossing", Crossing.__init__))
    monkeypatch.setattr(Separatrix, "__init__", counting("Separatrix", Separatrix.__init__))
    monkeypatch.setattr(Separatrix, "_traced", counting("Separatrix", Separatrix._traced))
    monkeypatch.setattr(dynamics, "_nth_walk", counting("walk", dynamics._nth_walk))
    L = support.forest_field(support.grid_torus(6, 6), random.Random(5), 0.8)
    report = ms_decomposition(L)
    graph_dot(L)
    report_json(L)
    assert report.corridors and report.graph._rows and built == Counter()
    corridor = max(report.corridors, key=lambda c: len(c._edges))
    assert corridor.crossings is corridor.crossings
    assert built == Counter({"Crossing": len(corridor._edges)}) and len(corridor._edges) > 1
    built.clear()
    sep = report.graph.edges[0]
    assert built == Counter({"Separatrix": len(report.graph._rows)})
    assert sep.path == sep.path and built["walk"] == 2


def _on_read_fields():
    """(field, kind) pairs: line fields (sampled, cyclic ones too, and
    forests) and vector fields on a random corpus, and forest and
    tree-cotree fields on grid tori and Klein bottles."""
    rng = random.Random(1811)
    out = []
    for S in support.random_corpus(1812, 80, max_moves=4):
        out += [(LineField(S, support.sample_matching(support.line_field_pairs(S), rng)), "line"),
                (support.forest_field(S, rng, rng.choice([0.5, 1.0])), "line"),
                (VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng)),
                 "vector")]
    for make in (support.grid_torus, support.grid_klein):
        for rows, cols in ((3, 4), (6, 6)):
            S = make(rows, cols)
            forest = support.forest_field(S, rng, 0.7)
            out += [(forest, "line"), (VectorField(S, support.tree_cotree(S, dict(forest.matching))),
                                       "vector")]
    return out


def test_records_built_on_read_equal_constructed_ones():
    """A record built on read equals, hashes and prints as the one its
    public constructor makes from the same fields: each traced corridor
    and closed corridor, each field's graph; the reverse of each corridor
    holds its crossings reversed, depart and arrive swapped; and each
    graph separatrix's path is the model's."""
    graphs = 0
    for X, kind in _on_read_fields():
        corridors, closed = X.corridors()
        for c in corridors:
            seen = (c, hash(c), repr(c))
            twin = Corridor(c.start, c.end, c.crossings, c.interior)
            assert (twin, hash(twin), repr(twin)) == seen
        for c in closed:
            seen = (c, hash(c), repr(c))
            twin = ClosedCorridor(c.faces, c.crossings)
            assert (twin, hash(twin), repr(twin)) == seen
        by_start = {c.crossings[0].depart: c for c in corridors}
        for c in corridors:
            back = by_start[c.crossings[-1].arrive]
            assert (back.start, back.end, back.interior) == (c.end, c.start, c.interior[::-1])
            assert back.crossings == tuple(
                Crossing(x.edge, x.arrive, x.depart) for x in reversed(c.crossings))
        if X.closed_path() is not None:
            continue
        g = X.graph()
        twin = TopologicalGraph(g.vertices, g.edges)
        assert (twin, hash(twin), repr(twin)) == (g, hash(g), repr(g))
        keys = ("vertices", "edges") if kind == "line" else ("cells", "witnesses")
        got = [(s.source, s.target, s.occurrence, tuple(getattr(s.path, k) for k in keys))
               for s in g.edges]
        assert got == model.separatrices(model.field_of(X), kind)
        graphs += 1
    assert graphs >= 40
