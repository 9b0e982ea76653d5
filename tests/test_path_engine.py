"""The iterative path engine behind L-paths and X-paths.

A serpentine field whose gradient path is longer than the recursion limit
must run through every path query and the CLI.  A differential check
compares the engine with test-only copies of the recursive traversals it
replaced: the same paths in the same order, the same counts, the same
closed-path witnesses.
"""

import json
import random
import sys
from functools import lru_cache

import support
from linefields import (
    LineField,
    LPath,
    VectorField,
    XPath,
    cancel_dvf,
    closed_l_path,
    closed_x_path,
    count_x_paths,
    critical_cells_dvf,
    emit_vector_field,
    l_paths,
    ms_decomposition,
    topological_graph,
    x_paths,
)
from linefields import dynamics, linefield, vectorfield
from linefields.cli import main

# ---- a gradient path through every vertex ---------------------------------


def test_serpentine_paths_need_no_recursion(tmp_path, capsys):
    V, head = support.serpentine_torus(40, 40)
    S = V.complex
    crit = critical_cells_dvf(V)
    (root,) = [c for c in crit if S.dim_of(c) == 0]
    assert head in crit

    graph = topological_graph(V)
    longest = max(graph.edges, key=lambda s: len(s.path.cells))
    assert (longest.source, longest.target) == (head, root)
    assert len(longest.path.cells) == len(S.vertices) > sys.getrecursionlimit()

    assert count_x_paths(V, head, root) == 2
    found = list(x_paths(V, head, root))
    assert len(found) == 2 and longest.path in found

    path = tmp_path / "serpentine.txt"
    path.write_text(emit_vector_field(V))
    assert main(["ms-graph", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["separatrices"]) == len(graph.edges)


# ---- one acyclicity check per operation ----------------------------------


def test_one_acyclicity_check_per_operation(monkeypatch):
    calls = []

    def counting(check):
        def wrapper(field):
            calls.append(check.__name__)
            return check(field)

        return wrapper

    monkeypatch.setattr(dynamics, "closed_l_path", counting(dynamics.closed_l_path))
    monkeypatch.setattr(vectorfield, "closed_x_path", counting(vectorfield.closed_x_path))
    rng = random.Random(4)
    S = support.grid_torus(4, 4)
    ms_decomposition(support.forest_field(S, rng, 0.7))
    assert calls == ["closed_l_path"]
    calls.clear()
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    out = cancel_dvf(V, "e13", "v2")
    assert out.matching == frozenset({("v2", "e12"), ("v1", "e13")})
    assert calls == ["closed_x_path"]


def test_one_cycle_search_per_field(monkeypatch):
    """A field keeps its closed-path verdict: a graph and ten path counts
    search the step relation once."""
    calls = []

    def counting(module):
        original = module._find_cycle

        def wrapper(roots, steps):
            calls.append(module.__name__)
            return original(roots, steps)

        monkeypatch.setattr(module, "_find_cycle", wrapper)

    counting(vectorfield)
    V, head = support.serpentine_torus(4, 4)
    (root,) = [c for c in V.doubled_critical() if c in V.complex.vertices]
    V.graph()
    assert [V.count_paths(head, root) for _ in range(10)] == [2] * 10
    assert calls == ["linefields.vectorfield"]
    calls.clear()
    counting(linefield)
    L = support.forest_field(support.grid_torus(4, 4), random.Random(4), 0.7)
    vertices = sorted(L.complex.vertices)
    L.graph()
    for a, b in zip(vertices[:10], vertices[1:]):
        L.count_paths(a, b)
    assert calls == ["linefields.linefield"]


# ---- the recursive traversals the engine replaced (test-only copies) ------


def old_step_options(V, cell, dim):
    upper = V.upper_of(cell)
    if upper is None:
        return []
    if dim == 0:
        tail, head = V.complex.edges[upper]
        return [(upper, slot, v) for slot, v in ((0, tail), (1, head)) if v != cell]
    return [(upper, i, e) for i, (_s, e) in enumerate(V.complex.faces[upper]) if e != cell]


def old_complete_paths(V, dim, cell):
    if V.upper_of(cell) is None:
        yield XPath(dim, (cell,), ())
        return
    for tau, key, nxt in old_step_options(V, cell, dim):
        for tail_path in old_complete_paths(V, dim, nxt):
            yield XPath(
                dim, (cell,) + tail_path.cells, ((tau, key),) + tail_path.witnesses
            )


def old_path_counter(V, dim, target):
    @lru_cache(maxsize=None)
    def ways(cell):
        if V.upper_of(cell) is None:
            return 1 if cell == target else 0
        return sum(ways(nxt) for _t, _k, nxt in old_step_options(V, cell, dim))

    return ways


def old_closed_x_path(V):
    for p in (0, 1):
        lowers = sorted(lo for lo, _up in V.matching if V.complex.dim_of(lo) == p)
        color = {}
        for root in lowers:
            if color.get(root):
                continue
            color[root] = 1
            stack = [(root, iter(old_step_options(V, root, p)))]
            steps = []
            while stack:
                node, options = stack[-1]
                advanced = False
                for tau, key, nxt in options:
                    state = color.get(nxt)
                    if state == 1:
                        cells = [n for n, _o in stack]
                        k = cells.index(nxt)
                        return XPath(
                            p, tuple(cells[k:]) + (nxt,), tuple(steps[k:]) + ((tau, key),)
                        )
                    if state is None:
                        color[nxt] = 1
                        stack.append((nxt, iter(old_step_options(V, nxt, p))))
                        steps.append((tau, key))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
                    if steps:
                        steps.pop()
    return None


def old_step_maps(L):
    step, witness = {}, {}
    for v, e in L.matching:
        tail, head = L.complex.edges[e]
        step[v] = head if v == tail else tail
        witness[v] = e
    return step, witness


def old_closed_l_path(L):
    step, witness = old_step_maps(L)
    done = set()
    for start in sorted(step):
        if start in done:
            continue
        chain = [start]
        on_chain = {start}
        while True:
            nxt = step.get(chain[-1])
            if nxt is None or nxt in done:
                break
            if nxt in on_chain:
                cycle = chain[chain.index(nxt) :]
                m = cycle.index(min(cycle))
                cycle = cycle[m:] + cycle[:m]
                cycle.append(cycle[0])
                return LPath(tuple(cycle), tuple(witness[v] for v in cycle[:-1]))
            chain.append(nxt)
            on_chain.add(nxt)
        done.update(chain)
    return None


def old_chain(L, start):
    step, witness = old_step_maps(L)
    cells, edges = [start], []
    while cells[-1] in step:
        edges.append(witness[cells[-1]])
        cells.append(step[cells[-1]])
    return LPath(tuple(cells), tuple(edges))


def start_cells(S, cell):
    ends = S.edges[cell] if cell in S.edges else [e for _s, e in S.faces[cell]]
    return list(dict.fromkeys(ends))


def boundary(S, cell):
    if cell in S.edges:
        return list(enumerate(S.edges[cell]))
    return [(i, e) for i, (_s, e) in enumerate(S.faces[cell])]


def old_graph_dvf(V):
    S = V.complex
    crit = critical_cells_dvf(V)
    edges = []
    for upper in sorted(c for c in crit if S.dim_of(c) > 0):
        for key, cell in boundary(S, upper):
            for path in old_complete_paths(V, S.dim_of(upper) - 1, cell):
                if path.cells[-1] in crit:
                    edges.append((upper, path.cells[-1], key, path))
    return edges


def old_x_paths(V, source, target):
    dim = V.complex.dim_of(target)
    return [
        path
        for start in start_cells(V.complex, source)
        for path in old_complete_paths(V, dim, start)
        if path.cells[-1] == target
    ]


def old_count(V, source, target):
    ways = old_path_counter(V, V.complex.dim_of(target), target)
    return sum(ways(c) for c in start_cells(V.complex, source))


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
            closed = closed_l_path(L)
            assert closed == old_closed_l_path(L)
            if closed is not None:
                cyclic["line"] += 1
                continue
            graph = topological_graph(L)
            for sep in graph.edges:
                start = sep.path.vertices[0]
                assert sep.path == old_chain(L, start)
            if len(L.complex.vertices) <= 30:
                for source in sorted(L.complex.vertices):
                    chain = old_chain(L, source)
                    for target in sorted(L.complex.vertices):
                        want = []
                        if target in chain.vertices:
                            k = chain.vertices.index(target)
                            want = [LPath(chain.vertices[: k + 1], chain.edges[:k])]
                        assert l_paths(L, source, target) == want
        for V in vectors:
            closed = closed_x_path(V)
            assert closed == old_closed_x_path(V)
            if closed is not None:
                cyclic[closed.dimension] += 1
                continue
            graph = topological_graph(V)
            got = [(s.source, s.target, s.occurrence, s.path) for s in graph.edges]
            assert got == old_graph_dvf(V)
            for upper, lower in queries(V, graph):
                found = list(x_paths(V, upper, lower))
                assert found == old_x_paths(V, upper, lower)
                assert count_x_paths(V, upper, lower) == old_count(V, upper, lower)
                answered += len(found) > 0
    assert min(cyclic.values()) >= 5
    assert answered >= 100

