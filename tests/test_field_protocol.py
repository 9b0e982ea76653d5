"""The field protocol and the one corridor tracer.

LineField and VectorField reach the algorithms through the same methods,
which are each operation's one public name; each method must equal the
module function it reads or the reference model.  Open and closed
corridors come from one tracer, compared against the reference model's
corridors (tests/model.py), which shares no index with the tracer.
"""

import ast
import importlib
import random
from pathlib import Path
from types import ModuleType

import pytest

import linefields
import model
import support
from test_design import REMOVED
from linefields import (
    CyclicFieldError,
    LineField,
    LPath,
    OperationError,
    VectorField,
    corridors_from,
    critical_cells,
    critical_cells_dvf,
    dynamics,
    ms_decomposition,
    validate_line_field,
    validate_vector_field,
    vectorfield,
)


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
    # Crossings of an edge whose two occurrences lie on one face.
    one_face = 0
    for L in LINES:
        want_open, want_closed = model.corridors(model.field_of(L))
        got_open, got_closed = L.corridors()
        assert type(got_open) is tuple and type(got_closed) is tuple
        assert [model.corridor_of(c) for c in got_open] == want_open
        assert [model.corridor_of(c) for c in got_closed] == want_closed
        closed_total += len(want_closed)
        one_face += sum(depart[0] == arrive[0] for corridor in want_open
                        for _e, depart, arrive in corridor[2])
        one_face += sum(depart[0] == arrive[0] for corridor in want_closed
                        for _e, depart, arrive in corridor[1])
        counts = {f: len(at) for f, at in model.unmatched(model.field_of(L)).items()}
        for f in sorted(f for f in L.complex.faces if counts[f] != 2):
            assert corridors_from(L, f) == [c for c in got_open if c.start == f]
        if L.closed_path() is None:
            report = ms_decomposition(L)
            assert report.corridors == got_open
            assert report.closed_corridors == got_closed
            decomposed_with_closed += bool(want_closed)
    assert closed_total > 0 and decomposed_with_closed > 0 and one_face > 0


def test_protocol_methods_are_the_functions():
    """Each field operation has one body and one public name: the names the
    frozen benchmark reads on the modules are the methods, not wrappers
    around them, and the package exports none of them."""
    assert dynamics.closed_l_path is vectorfield.closed_x_path is LineField.closed_path
    assert LineField.closed_path is VectorField.closed_path
    assert vectorfield.count_x_paths is VectorField.count_paths
    assert vectorfield.topological_graph_dvf is LineField.graph is VectorField.graph
    assert LineField.corridors is VectorField.corridors
    kept = ("closed_l_path", "closed_x_path", "count_x_paths", "topological_graph_dvf",
            "parse_graph_json")
    assert [n for n in kept if hasattr(linefields, n)] == []
    assert VectorField(support.tetra()).corridors() == ((), ())


def test_line_field_methods_equal_functions():
    acyclic = 0
    for L in LINES:
        assert L.problems() == L.complex.validate() + validate_line_field(L)
        if L.problems():
            continue
        assert L.doubled_critical() == critical_cells(L)
        data, closed = model.field_of(L), L.closed_path()
        want = model.closed_line_path(data)
        assert closed == (None if want is None else LPath(*want))
        if closed is None:
            graph = L.graph()
            got = [(s.source, s.target, s.occurrence, (s.path.vertices, s.path.edges))
                   for s in graph.edges]
            assert list(graph.vertices) == sorted(model.critical(data, "line"))
            assert got == model.separatrices(data, "line")
        else:
            refusal = CyclicFieldError, f"line field has a closed path through {closed.cells[0]}"
        vertices = sorted(L.complex.vertices)
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
            if closed is None:
                path = model.l_path(data, a, b)
                assert L.paths(a, b) == ([] if path is None else [LPath(*path)])
                assert L.count_paths(a, b) == (path is not None)
            else:
                assert outcome(lambda: L.paths(a, b)) == refusal
                assert outcome(lambda: L.count_paths(a, b)) == refusal
        acyclic += closed is None
    assert 0 < acyclic < len(LINES)


def test_vector_field_methods_equal_functions():
    acyclic = 0
    for V in VECTORS:
        assert V.problems() == V.complex.validate() + validate_vector_field(V)
        if V.problems():
            continue
        crit = critical_cells_dvf(V)
        assert V.doubled_critical() == {c: 2 * i for c, i in crit.items()}
        data, closed = model.field_of(V), V.closed_path()
        want = model.closed_vector_path(data)
        assert (None if closed is None else (closed.cells, closed.witnesses)) == want
        assert V.corridors() == ((), ())
        if closed is None:
            got = [(s.source, s.target, s.occurrence, (s.path.cells, s.path.witnesses))
                   for s in V.graph().edges]
            assert got == model.separatrices(data, "vector")
        else:
            refusal = CyclicFieldError, f"vector field has a closed X-path through {closed.cells[0]}"
        S = V.complex
        for upper in sorted(c for c in crit if S.dim_of(c) > 0)[:4]:
            for lower in sorted(c for c in crit if S.dim_of(c) == S.dim_of(upper) - 1)[:3]:
                if closed is None:
                    paths = model.x_paths(data, upper, lower)
                    assert [(p.cells, p.witnesses) for p in V.paths(upper, lower)] == paths
                    assert V.count_paths(upper, lower) == len(paths)
                else:
                    assert outcome(lambda: list(V.paths(upper, lower))) == refusal
                    assert outcome(lambda: V.count_paths(upper, lower)) == refusal
        acyclic += closed is None
    assert 0 < acyclic < len(VECTORS)


def test_path_view_of_both_kinds():
    seen = {"line": 0, "vector": 0}
    for field in LINES + VECTORS:
        # Critical cells come by dimension, then id, as support.cells lists them.
        crit = field.doubled_critical()
        assert list(crit) == [c for c, _d in support.cells(field.complex) if c in crit]
        if field.problems() or field.closed_path() is not None:
            continue
        for sep in field.graph().edges:
            path = sep.path
            if isinstance(field, LineField):
                assert (path.cells, path.steps) == (path.vertices, path.edges)
                seen["line"] += 1
            else:
                assert path.steps == tuple(t for t, _key in path.witnesses)
                seen["vector"] += 1
            assert len(path.cells) == len(path.steps) + 1
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


# The public surface: the field types, the functions the field protocol's
# methods call and the paper's operations.  A change to it shows up as a diff here.
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
    "corridors_from",
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
    "merge_critical_faces",
    "ms_decomposition",
    "parse_complex",
    "parse_document",
    "parse_line_field",
    "parse_off",
    "parse_vector_field",
    "radial_decomposition",
    "report_json",
    "reversed_walk",
    "split_face",
    "validate_line_field",
    "validate_vector_field",
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


def test_removed_methods_stay_gone():
    back = []
    for owner, names in REMOVED.items():
        home = linefields if owner == "linefields" else getattr(linefields, owner.removesuffix(".py"))
        back += [(owner, n) for n in names if hasattr(home, n)]
    assert back == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from linefields import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == linefields.__all__
    assert all(namespace[n] is getattr(linefields, n) for n in namespace)


def test_every_package_name_perfbench_reads_exists():
    """perfbench/ is frozen with the benchmark, so a removal from the
    package that would break it fails here: every name a perfbench file
    imports from the package resolves, and so does every attribute it reads
    on an imported package module."""
    missing, read = [], 0
    for path in sorted((Path(__file__).parent.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("linefields"):
                package = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(package, alias.name, None)
                    if value is None:
                        missing.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
                    elif isinstance(value, ModuleType):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                read += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert missing == []
    assert read >= 30
