"""The iterative path engine behind L-paths and X-paths.

A serpentine field whose gradient path is longer than the recursion limit
must run through every path query and the CLI.  A differential check
compares the engine with the reference model's recursive traversals
(tests/model.py): the same paths in the same order, the same counts, the
same closed-path witnesses.
"""

import json
import random
import sys

import model
import support
from linefields import (
    LineField,
    LPath,
    VectorField,
    XPath,
    cancel_dvf,
    cancel_vertex_face,
    critical_cells_dvf,
    emit_vector_field,
    ms_decomposition,
)
from linefields import dynamics, simplify, vectorfield
from linefields.cli import main

# ---- a gradient path through every vertex ---------------------------------


def test_serpentine_paths_need_no_recursion(tmp_path, capsys):
    V, head = support.serpentine_torus(40, 40)
    S = V.complex
    crit = critical_cells_dvf(V)
    (root,) = [c for c in crit if S.dim_of(c) == 0]
    assert head in crit

    graph = V.graph()
    longest = max(graph.edges, key=lambda s: len(s.path.cells))
    assert (longest.source, longest.target) == (head, root)
    assert len(longest.path.cells) == len(S.vertices) > sys.getrecursionlimit()

    assert V.count_paths(head, root) == 2
    found = list(V.paths(head, root))
    assert len(found) == 2 and longest.path in found

    path = tmp_path / "serpentine.txt"
    path.write_text(emit_vector_field(V))
    assert main(["ms-graph", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["separatrices"]) == len(graph.edges)


# ---- one acyclicity check per operation ----------------------------------


def test_one_acyclicity_check_per_operation(monkeypatch):
    calls = []

    check = dynamics._Field.closed_path

    def wrapper(field):
        calls.append(type(field).__name__)
        return check(field)

    monkeypatch.setattr(dynamics._Field, "closed_path", wrapper)
    rng = random.Random(4)
    S = support.grid_torus(4, 4)
    ms_decomposition(support.forest_field(S, rng, 0.7))
    assert calls == ["LineField"]
    calls.clear()
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    out = cancel_dvf(V, "e13", "v2")
    assert out.matching == frozenset({("v2", "e12"), ("v1", "e13")})
    assert calls == ["VectorField"]


def test_one_cycle_search_per_field(monkeypatch):
    """A field keeps its closed-path verdict: a graph and ten path counts
    search the step relation once.  Both kinds search in dynamics._Field."""
    calls = []
    original = dynamics._search

    def wrapper(roots, steps, fold=None):
        if fold is None:
            calls.append(steps)
        return original(roots, steps, fold)

    monkeypatch.setattr(dynamics, "_search", wrapper)
    V, head = support.serpentine_torus(4, 4)
    (root,) = [c for c in V.doubled_critical() if c in V.complex.vertices]
    V.graph()
    assert [V.count_paths(head, root) for _ in range(10)] == [2] * 10
    assert len(calls) == 1 and calls[0] is V._steps
    calls.clear()
    L = support.forest_field(support.grid_torus(4, 4), random.Random(4), 0.7)
    vertices = sorted(L.complex.vertices)
    L.graph()
    for a, b in zip(vertices[:10], vertices[1:]):
        L.count_paths(a, b)
    assert len(calls) == 1 and calls[0] is L._steps


# ---- path queries list no dead walks --------------------------------------


def counting_walks(monkeypatch, module, name):
    """Wrap the walk builder `module.name` so that each walk it returns is
    also appended to the list returned here."""
    walks = []
    engine = getattr(module, name)

    def counting(*args, **kwargs):
        walk = engine(*args, **kwargs)
        walks.append(walk)
        return walk

    monkeypatch.setattr(module, name, counting)
    return walks


def test_path_queries_list_no_dead_walks(monkeypatch):
    """On a tree-cotree field most walks from a critical face end on a tree
    edge; V.paths builds only walks that reach the target, and its first
    path costs one walk."""
    S = support.grid_torus(8, 8)
    forest = support.forest_field(S, random.Random(7), 1.0)
    V = VectorField(S, support.tree_cotree(S, dict(forest.matching)))
    crit = critical_cells_dvf(V)
    (face,) = [c for c in crit if c in S.faces]
    edges = sorted(c for c in crit if c in S.edges)
    walks = counting_walks(monkeypatch, vectorfield, "_nth_walk")
    starts = list(dict.fromkeys(e for _s, e in S.faces[face]))
    walks_from = dynamics._search(starts, V._steps, ({}, 1, sum))[0]
    every_walk = sum(walks_from[start] for start in starts)
    for edge in edges:
        walks.clear()
        found = list(V.paths(face, edge))
        assert found and len(walks) == len(found) == V.count_paths(face, edge)
        assert every_walk > 4 * len(found)
        walks.clear()
        next(V.paths(face, edge))
        assert len(walks) == 1


def test_cancel_dvf_builds_one_walk(monkeypatch):
    """cancel_dvf counts the paths, then builds only the one it reverses."""
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    walks = counting_walks(monkeypatch, vectorfield, "_nth_walk")
    out = cancel_dvf(V, "e13", "v2")
    assert walks == [XPath(0, ("v1", "v2"), (("e12", 1),))]
    assert out.matching == frozenset({("v2", "e12"), ("v1", "e13")})


def test_cancel_vertex_face_walks_one_chain(monkeypatch):
    """cancel_vertex_face finds which corners reach the vertex in one pass
    and walks only the chain it reverses, not one chain per corner."""
    S = support.subdivide_edge(support.tetra(), "e34", "m", "e34a", "e34b")
    L = LineField(S, frozenset({("v3", "e34a")}))
    chains = counting_walks(monkeypatch, simplify, "_nth_walk")
    out, _corr = cancel_vertex_face(L, "m", "f123")
    assert chains == [LPath(("v3", "m"), ("e34a",))]
    assert out.matching == frozenset({("m", "e34a"), ("v3", "d_f123")})


# ---- differential check ---------------------------------------------------


def engine_fields():
    """Random-corpus fields of both kinds, cyclic ones included, and forest
    and tree-cotree fields on torus and Klein-bottle grids up to 16x16."""
    rng = random.Random(1201)
    lines, vectors = [], []
    for S in support.random_corpus(1202, 40, max_moves=4):
        for keep in (0.3, 0.6, 0.9):
            lines.append(
                LineField(S, support.sample_matching(support.line_field_pairs(S), rng, keep))
            )
            vectors.append(
                VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng, keep))
            )
    grids = [support.grid_torus(n, m) for n, m in ((3, 4), (8, 8), (16, 16))]
    grids += [support.grid_klein(n, m) for n, m in ((3, 4), (8, 8), (16, 16))]
    for S in grids:
        lines.append(LineField(S, support.sample_matching(support.line_field_pairs(S), rng)))
        for keep in (1.0, 0.6):
            forest = support.forest_field(S, rng, keep)
            lines.append(forest)
            pairs = support.tree_cotree(S, dict(forest.matching))
            if pairs is not None:
                vectors.append(VectorField(S, pairs))
    vectors.append(support.serpentine_torus(16, 16)[0])
    return lines, vectors


def queries(V, graph):
    """Critical (upper, lower) pairs one dimension apart: every separatrix
    end of the first few uppers, plus one lower that may be unreachable."""
    S = V.complex
    crit = critical_cells_dvf(V)
    out = []
    for upper in sorted(c for c in crit if S.dim_of(c) > 0)[:6]:
        lowers = sorted(c for c in crit if S.dim_of(c) == S.dim_of(upper) - 1)
        ends = {s.target for s in graph.edges if s.source == upper}
        out += [(upper, lower) for lower in sorted(ends | set(lowers[:1]))]
    return out


def test_engine_matches_recursive_traversals():
    lines, vectors = engine_fields()
    cyclic = {"line": 0, 0: 0, 1: 0}
    answered = 0
    with support.recursion_limit(20000):
        for L in lines:
            data = model.field_of(L)
            closed = L.closed_path()
            want = model.closed_line_path(data)
            assert closed == (None if want is None else LPath(*want))
            if closed is not None:
                cyclic["line"] += 1
                continue
            graph = L.graph()
            for sep in graph.edges:
                start = sep.path.vertices[0]
                assert (sep.path.vertices, sep.path.edges) == model.chain(data, start)
            if len(L.complex.vertices) <= 30:
                for source in sorted(L.complex.vertices):
                    for target in sorted(L.complex.vertices):
                        path = model.l_path(data, source, target)
                        want = [] if path is None else [LPath(*path)]
                        assert L.paths(source, target) == want
        for V in vectors:
            data = model.field_of(V)
            closed = V.closed_path()
            want = model.closed_vector_path(data)
            assert closed == (None if want is None else V._path(*want))
            if closed is not None:
                cyclic[closed.dimension] += 1
                continue
            graph = V.graph()
            got = [(s.source, s.target, s.occurrence, (s.path.cells, s.path.witnesses))
                   for s in graph.edges]
            assert got == model.separatrices(data, "vector")
            for upper, lower in queries(V, graph):
                found = [(p.cells, p.witnesses) for p in V.paths(upper, lower)]
                assert found == model.x_paths(data, upper, lower)
                assert V.count_paths(upper, lower) == len(model.x_paths(data, upper, lower))
                answered += len(found) > 0
    assert min(cyclic.values()) >= 5
    assert answered >= 100


def test_folding_search_finds_the_same_cycle():
    """The search stops at its first closed walk whether or not it folds:
    a walk count fold returns the cycle the plain search returns, on
    cyclic fields too, and on acyclic ones reaches the same cells."""
    lines, vectors = engine_fields()
    cyclic = 0
    for field in lines + vectors:
        _problems, steps, roots = field._scan
        marks, cycle = dynamics._search(roots, steps)
        counts, folded = dynamics._search(roots, steps, ({}, 1, sum))
        assert folded == cycle
        if cycle is None:
            assert counts.keys() == marks.keys()
            assert all(type(n) is int and n >= 1 for n in counts.values())
        cyclic += cycle is not None
    assert 20 <= cyclic <= len(lines + vectors) - 20
