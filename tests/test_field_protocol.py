"""The field protocol and the one corridor tracer, against what they replaced.

LineField and VectorField reach the algorithms through the same methods;
each method must equal the module function it stands for.  Open and closed
corridors come from one tracer; `reference_corridors` is a copy of the
earlier scan, an open-corridor trace followed by a separate cycle
collection, kept here to compare against.  It builds its own partner,
sibling and count maps from the walks and the matching, so it shares no
index with the tracer.
"""

import random
from types import ModuleType

import pytest

import linefields
import support
from linefields import (
    ClosedCorridor,
    Corridor,
    Crossing,
    CyclicFieldError,
    LineField,
    OperationError,
    VectorField,
    closed_l_path,
    closed_x_path,
    corridors_from,
    count_x_paths,
    critical_cells,
    critical_cells_dvf,
    l_paths,
    ms_decomposition,
    validate_line_field,
    validate_vector_field,
    x_paths,
)
from test_path_engine import old_chain, old_graph_dvf


def corridor_maps(L):
    """Per-face unmatched counts, the partner map pairing the two
    occurrences of each unmatched edge, the sibling map pairing the two
    unmatched occurrences of each count-2 face, and each face's unmatched
    positions, read off the walks and the matching alone."""
    S = L.complex
    matched = {e for _v, e in L.matching}
    positions = {
        f: [i for i, (_s, e) in enumerate(S.faces[f]) if e not in matched]
        for f in sorted(S.faces)
    }
    slots = {}
    for f, at in positions.items():
        for i in at:
            slots.setdefault(S.faces[f][i][1], []).append((f, i))
    partner = {}
    for a, b in slots.values():
        partner[a], partner[b] = b, a
    sibling = {}
    for f, at in positions.items():
        if len(at) == 2:
            a, b = (f, at[0]), (f, at[1])
            sibling[a], sibling[b] = b, a
    counts = {f: len(at) for f, at in positions.items()}
    return counts, partner, sibling, positions


def reference_corridors(L):
    """(corridors, closed corridors) as the two separate loops found them."""
    S = L.complex
    counts, partner, sibling, positions = corridor_maps(L)
    visited = set()
    corridors = []
    for f in sorted(S.faces):
        if counts[f] == 2:
            continue
        for i in positions[f]:
            crossings, interior = [], []
            cur = (f, i)
            while True:
                visited.add(cur)
                arrive = partner[cur]
                visited.add(arrive)
                crossings.append(Crossing(S.faces[cur[0]][cur[1]][1], cur, arrive))
                g = arrive[0]
                if counts[g] != 2:
                    corridors.append(Corridor(f, g, tuple(crossings), tuple(interior)))
                    break
                interior.append(g)
                cur = sibling[arrive]
    closed = []
    for f in sorted(S.faces):
        if counts[f] != 2:
            continue
        for i in positions[f]:
            start = (f, i)
            if start in visited:
                continue
            crossings, faces = [], []
            cur = start
            while True:
                visited.add(cur)
                arrive = partner[cur]
                visited.add(arrive)
                crossings.append(Crossing(S.faces[cur[0]][cur[1]][1], cur, arrive))
                faces.append(arrive[0])
                cur = sibling[arrive]
                if cur == start:
                    break
            closed.append(ClosedCorridor(tuple(faces), tuple(crossings)))
    return corridors, closed


def fields():
    """Line and vector fields: random-corpus matchings (cyclic ones too),
    forest and tree-cotree fields on the corpus and on grid tori and grid
    Klein bottles, a few invalid matchings, and a serpentine field."""
    rng = random.Random(1701)
    lines, vectors = [], []
    for S in support.random_corpus(1702, 40, max_moves=4):
        lines.append(LineField(S, support.sample_matching(support.line_field_pairs(S), rng)))
        vectors.append(
            VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
        )
        lines.append(support.forest_field(S, rng, rng.choice([0.5, 1.0])))
    grids = [build(n, m) for build in (support.grid_torus, support.grid_klein)
             for n, m in ((1, 3), (2, 3), (3, 3), (4, 5))]
    for S in grids:
        lines.append(LineField(S, support.sample_matching(support.line_field_pairs(S), rng)))
        for keep in (1.0, 0.5):
            forest = support.forest_field(S, rng, keep)
            lines.append(forest)
            pairs = support.tree_cotree(S, dict(forest.matching))
            if pairs is not None:
                vectors.append(VectorField(S, pairs))
    S = support.tetra()
    lines.append(LineField(S, frozenset({("v1", "e34"), ("v2", "e23"), ("v3", "e23")})))
    vectors.append(VectorField(S, frozenset({("v1", "f123"), ("e12", "f123")})))
    vectors.append(support.serpentine_torus(4, 4)[0])
    return lines, vectors


LINES, VECTORS = fields()


def old_graph(L):
    """Every separatrix of an acyclic line field as (source, target,
    occurrence, path), from `old_chain`: one walk from the corner of each
    unmatched occurrence on a critical face's walk, kept when it ends at a
    critical vertex."""
    S = L.complex
    matched = {e for _v, e in L.matching}
    vertices = S.vertices - {v for v, _e in L.matching}
    faces = [f for f in sorted(S.faces) if sum(e not in matched for _s, e in S.faces[f]) != 2]
    edges = []
    for f in faces:
        for i, (sign, e) in enumerate(S.faces[f]):
            if e not in matched:
                path = old_chain(L, S.edges[e][0 if sign > 0 else 1])
                if path.vertices[-1] in vertices:
                    edges.append((f, path.vertices[-1], i, path))
    return sorted(vertices | set(faces)), edges


def outcome(call):
    """What call() returns, or the type and message of the OperationError
    it raises, so refusals are compared too."""
    try:
        return call()
    except OperationError as exc:
        return type(exc), str(exc)


def test_one_tracer_matches_reference_scan():
    closed_total = 0
    decomposed_with_closed = 0
    for L in LINES:
        want_open, want_closed = reference_corridors(L)
        assert list(L.corridors()[1]) == want_closed
        assert L.corridors() == (tuple(want_open), tuple(want_closed))
        closed_total += len(want_closed)
        counts, _partner, _sibling, _positions = corridor_maps(L)
        for f in sorted(f for f in L.complex.faces if counts[f] != 2):
            assert corridors_from(L, f) == [c for c in want_open if c.start == f]
        if closed_l_path(L) is None:
            report = ms_decomposition(L)
            assert report.corridors == tuple(want_open)
            assert report.closed_corridors == tuple(want_closed)
            decomposed_with_closed += bool(want_closed)
    assert closed_total > 0 and decomposed_with_closed > 0


def test_line_field_methods_equal_functions():
    acyclic = 0
    for L in LINES:
        assert L.problems() == L.complex.validate() + validate_line_field(L)
        if L.problems():
            continue
        assert L.doubled_critical() == critical_cells(L)
        assert L.closed_path() == closed_l_path(L)
        if L.closed_path() is None:
            graph = L.graph()
            got = [(s.source, s.target, s.occurrence, s.path) for s in graph.edges]
            assert (list(graph.vertices), got) == old_graph(L)
        vertices = sorted(L.complex.vertices)
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
            assert outcome(lambda: L.paths(a, b)) == outcome(lambda: l_paths(L, a, b))
            assert outcome(lambda: L.count_paths(a, b)) == outcome(lambda: len(l_paths(L, a, b)))
        acyclic += L.closed_path() is None
    assert 0 < acyclic < len(LINES)


def test_vector_field_methods_equal_functions():
    acyclic = 0
    for V in VECTORS:
        assert V.problems() == V.complex.validate() + validate_vector_field(V)
        if V.problems():
            continue
        crit = critical_cells_dvf(V)
        assert V.doubled_critical() == {c: 2 * i for c, i in crit.items()}
        assert V.closed_path() == closed_x_path(V)
        assert V.corridors() == ((), ())
        if V.closed_path() is None:
            got = [(s.source, s.target, s.occurrence, s.path) for s in V.graph().edges]
            assert got == old_graph_dvf(V)
        S = V.complex
        for upper in sorted(c for c in crit if S.dim_of(c) > 0)[:4]:
            for lower in sorted(c for c in crit if S.dim_of(c) == S.dim_of(upper) - 1)[:3]:
                assert outcome(lambda: list(V.paths(upper, lower))) == outcome(
                    lambda: list(x_paths(V, upper, lower))
                )
                assert outcome(lambda: V.count_paths(upper, lower)) == outcome(
                    lambda: count_x_paths(V, upper, lower)
                )
        acyclic += V.closed_path() is None
    assert 0 < acyclic < len(VECTORS)


def test_path_view_of_both_kinds():
    seen = {"line": 0, "vector": 0}
    for field in LINES + VECTORS:
        # Critical cells come by dimension, then id, as cells() lists them.
        crit = field.doubled_critical()
        assert list(crit) == [c for c, _d in field.complex.cells() if c in crit]
        if field.problems() or field.closed_path() is not None:
            continue
        for sep in field.graph().edges:
            path = sep.path
            if isinstance(field, LineField):
                assert (path.cells, path.steps) == (path.vertices, path.edges)
                assert path.json() == {"vertices": list(path.vertices), "edges": list(path.edges)}
                seen["line"] += 1
            else:
                assert path.steps == tuple(t for t, _key in path.witnesses)
                assert path.json() == {
                    "cells": list(path.cells),
                    "witnesses": [list(w) for w in path.witnesses],
                }
                seen["vector"] += 1
            assert path.is_trivial() == (len(path.cells) == 1)
            assert path.is_closed() == (len(path.cells) > 1 and path.cells[0] == path.cells[-1])
    assert seen["line"] > 0 and seen["vector"] > 0


def test_cyclic_refusal_carries_the_closed_path():
    for field in LINES + VECTORS:
        closed = None if field.problems() else field.closed_path()
        if closed is None:
            continue
        with pytest.raises(CyclicFieldError) as info:
            field.graph()
        assert info.value.witness == closed
        assert str(info.value).endswith(f" through {closed.cells[0]}")


# The public surface: the field types, the field protocol's functions and
# the paper's operations.  A change to it shows up as a diff here.
PUBLIC = [
    "CancellationError",
    "CellCorrespondence",
    "ClosedCorridor",
    "CoreResult",
    "Corridor",
    "Crossing",
    "CyclicFieldError",
    "DecompositionReport",
    "DegenerateOperationError",
    "Document",
    "InvalidComplexError",
    "LPath",
    "LineField",
    "NotInImageError",
    "OperationError",
    "ParseError",
    "RadialComplex",
    "Separatrix",
    "SurfaceComplex",
    "TopologicalGraph",
    "VectorField",
    "XPath",
    "cancel_dvf",
    "cancel_vertex_face",
    "closed_l_path",
    "closed_x_path",
    "corridors_from",
    "count_x_paths",
    "critical_cells",
    "critical_cells_dvf",
    "delete_edge_merge_faces",
    "dlf_to_dvf",
    "dualize",
    "dvf_to_dlf",
    "emit_complex",
    "emit_line_field",
    "emit_vector_field",
    "fresh_id",
    "graph_dot",
    "homotopy_core",
    "is_radial",
    "l_paths",
    "merge_critical_faces",
    "ms_decomposition",
    "occ_text",
    "parse_complex",
    "parse_document",
    "parse_graph_json",
    "parse_line_field",
    "parse_off",
    "parse_vector_field",
    "radial_decomposition",
    "report_json",
    "reversed_walk",
    "split_face",
    "topological_graph",
    "validate_line_field",
    "validate_vector_field",
    "x_paths",
]

# Other names for a public name, one-line expressions of the field protocol,
# and helpers only the tests call (kept in tests/support.py and
# tests/isomorphism.py).
REMOVED = [
    "HasseDiagram",
    "collapse_noncritical_face",
    "complexes_isomorphic",
    "contract_matched_pair",
    "euler_sum",
    "euler_sum_dvf",
    "is_acyclic",
    "is_acyclic_dvf",
    "isomorphisms",
    "line_fields_isomorphic",
    "occ_reversed",
    "scan_closed_corridors",
    "subdivide_edge",
    "topological_graph_dvf",
    "unmatched_boundary_count",
    "vector_fields_isomorphic",
]


def test_every_public_name_is_exported():
    # The package binds a name on its first access, so walk dir() with
    # getattr rather than reading the namespace as it stands.
    names = {
        n
        for n in dir(linefields)
        if not n.startswith("_") and not isinstance(getattr(linefields, n), ModuleType)
    }
    assert names == set(linefields.__all__)
    assert sorted(linefields.__all__) == PUBLIC
    assert [n for n in REMOVED if hasattr(linefields, n)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from linefields import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == linefields.__all__
    assert all(namespace[n] is getattr(linefields, n) for n in namespace)
