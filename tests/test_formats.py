"""Native file format, OFF import, and DOT/JSON export."""

import json
import random
from pathlib import Path

import pytest
import support

from linefields import (
    LineField,
    ParseError,
    VectorField,
    complexes_isomorphic,
    critical_cells,
    critical_cells_dvf,
    emit_complex,
    emit_line_field,
    emit_vector_field,
    graph_dot,
    parse_complex,
    parse_document,
    parse_graph_json,
    parse_line_field,
    parse_off,
    parse_vector_field,
    report_json,
    topological_graph,
)

GOLD = Path(__file__).parent / "golden"


# ---- native format --------------------------------------------------------

def test_parse_one_vertex_torus():
    text = """\
# one-vertex torus
surface q1

vertex v
edge a v v
edge b v v  # second loop
face F walk +a +b -a -b
"""
    S = parse_complex(text)
    assert S.name == "q1"
    assert len(S.vertices) == 1 and len(S.edges) == 2 and len(S.faces) == 1
    assert support.is_rotation(S.faces["F"], ((1, "a"), (1, "b"), (-1, "a"), (-1, "b")))
    assert S.validate() == []


def test_roundtrip_all_builders():
    for build in support.all_seed_builders():
        S = build()
        T = parse_complex(emit_complex(S))
        assert T.vertices == S.vertices
        assert T.edges == S.edges
        assert T.faces == S.faces
        assert T.name == S.name
        assert complexes_isomorphic(S, T)


def test_roundtrip_random_corpus():
    for S in support.random_corpus(901, 10):
        assert parse_complex(emit_complex(S)).faces == S.faces


def test_line_field_roundtrip():
    L = LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")}))
    back = parse_line_field(emit_line_field(L))
    assert back.matching == L.matching
    assert back.complex.faces == L.complex.faces


def test_vector_field_roundtrip():
    V = VectorField(support.tetra(), frozenset({("v1", "e12"), ("e23", "f123")}))
    back = parse_vector_field(emit_vector_field(V))
    assert back.matching == V.matching


def test_document_kind():
    base = emit_complex(support.torus_one())
    assert parse_document(base).kind() == "complex"
    assert parse_document(base + "match v a\n").kind() == "line"
    assert parse_document(base + "vmatch v a\n").kind() == "vector"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("surface s\nthing v\n", "line 2: unknown directive thing"),
        ("surface s\nvertex v\nedge e v v\nvertex w\n", "line 4: vertex line out of section order"),
        ("surface s\nvertex v\nvertex v\n", "line 3: duplicate id v"),
        ("surface s\nvertex v\nedge v v v\n", "line 3: duplicate id v"),
        ("surface s\nvertex v\nedge e v w\n", "line 3: edge e references unknown vertex w"),
        ("surface s\nvertex v\nedge e v v\nedge g e v\n", "line 4: edge g references unknown vertex e"),
        ("surface s\nvertex v\nedge e v v\nface F walk +e -g\n", "line 4: walk references unknown edge g"),
        ("surface s\nvertex v\nedge e v v\nface F walk e e\n", "line 4: occurrence e needs a +/- sign"),
        ("surface s\nsurface t\n", "line 2: second surface line"),
        ("vertex v\n", "line 1: vertex line before the surface line"),
        ("surface s\nvertex v\nedge e v v\nface F walk +e +e\nmatch v e\nvmatch v e\n", "line 6: vmatch line in a match file"),
        ("surface s\nvertex v\nedge e v v\nface F +e\n", "line 4: face line needs id, walk keyword"),
        ("surface s\nvertex v v2\n", "line 2: vertex line needs exactly one id"),
        ("", "missing surface line"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert fragment in str(err.value)


def test_parse_complex_rejects_matching_lines():
    text = emit_complex(support.torus_one()) + "match v a\n"
    with pytest.raises(ParseError, match="matching lines in a bare complex file"):
        parse_complex(text)


def test_field_parsers_reject_other_kind():
    base = emit_complex(support.torus_one())
    with pytest.raises(ParseError, match="vector field"):
        parse_line_field(base + "vmatch v a\n")
    with pytest.raises(ParseError, match="line field"):
        parse_vector_field(base + "match v a\n")


def test_parse_error_line_attribute():
    with pytest.raises(ParseError) as err:
        parse_document("surface s\nnope\n")
    assert err.value.line == 2


# ---- OFF import -----------------------------------------------------------

def test_off_icosahedron():
    S = parse_off((GOLD / "icosahedron.off").read_text())
    assert len(S.vertices) == 12 and len(S.edges) == 30 and len(S.faces) == 20
    assert S.validate() == []
    assert len(S.vertices) - len(S.edges) + len(S.faces) == 2


def test_off_two_triangle_sphere():
    text = "OFF\n3 2 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 1\n"
    S = parse_off(text)
    assert S.validate() == []
    assert len(S.vertices) - len(S.edges) + len(S.faces) == 2
    # the second triangle traverses every shared edge against its creation
    # direction, so its walk is all-negative
    assert all(sign == -1 for sign, _e in S.faces["f1"])


def test_off_open_mesh_fails_validation():
    text = "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    S = parse_off(text)
    assert S.validate() != []


def test_off_third_face_on_edge():
    text = "OFF\n4 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 2 1\n3 0 1 3\n"
    with pytest.raises(ParseError, match="line 9: .*three faces"):
        parse_off(text)


def test_off_rejects_non_triangles():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(ParseError, match="only triangle faces"):
        parse_off(text)


def test_off_index_out_of_range():
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
    with pytest.raises(ParseError, match="out of range"):
        parse_off(text)


@pytest.mark.parametrize(
    "text", ["OFF\n-1 -1 0\n", "OFF\n0 -3 0\n", "OFF\n-2 1 0\n3 0 1 2\n", "OFF\n0 0 -1\n"]
)
def test_off_negative_counts(text):
    # Refused on the count line: a negative face count used to parse as an
    # empty complex, and a negative vertex count moved the read back.
    with pytest.raises(ParseError, match="line 2: counts must not be negative"):
        parse_off(text)


def test_off_face_color_fields_ignored():
    text = "OFF\n3 2 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 255 0 0\n3 0 2 1 0 255 0\n"
    assert parse_off(text).validate() == []


# ---- DOT and JSON ---------------------------------------------------------

def golden_pairs():
    return [
        ("tetra", support.tetra()),
        ("torus1", support.torus_one()),
        ("disk_sphere", support.disk_sphere()),
    ]


def test_dot_golden_bytes():
    for stem, S in golden_pairs():
        want = (GOLD / f"{stem}_empty.dot").read_text()
        assert graph_dot(LineField(S, frozenset())) == want


def test_json_golden_bytes():
    for stem, S in golden_pairs():
        want = (GOLD / f"{stem}_empty.json").read_text()
        assert report_json(LineField(S, frozenset())) == want


def test_dot_half_integer_labels():
    text = graph_dot(LineField(support.disk_sphere(), frozenset()))
    assert '"n" [shape=box, label="n (idx=1/2)"]' in text
    assert '"v" [shape=circle, label="v (idx=1)"]' in text


def test_dot_dvf_shapes():
    V = VectorField(support.tetra(), frozenset({("v1", "e12")}))
    text = graph_dot(V)
    assert 'shape=diamond' in text and 'shape=circle' in text and 'shape=box' in text


def test_dot_multiplicity_repeats_edge_lines():
    text = graph_dot(LineField(support.torus_one(), frozenset()))
    assert text.count('"F" -> "v";') == 4


QUOTED_IDS = """surface q
vertex v"1
vertex w\\
edge e v"1 w\\
edge f v"1 w\\
face A walk +e -f
face B walk +f -e
"""


@pytest.mark.parametrize(
    "match, escaped",
    [('match w\\ e', 'v\\"1'), ('match v"1 e', 'w\\\\')],
    ids=["quote", "backslash"],
)
def test_dot_escapes_quotes_and_backslashes(match, escaped):
    # The one critical vertex holds a quote or a backslash; both faces
    # reach it by a separatrix, so node, label and edge strings all carry it.
    L = parse_line_field(QUOTED_IDS + match + "\n")
    assert graph_dot(L) == (
        "digraph topological_graph {\n"
        '  "A" [shape=box, label="A (idx=1/2)"];\n'
        '  "B" [shape=box, label="B (idx=1/2)"];\n'
        f'  "{escaped}" [shape=circle, label="{escaped} (idx=1)"];\n'
        f'  "A" -> "{escaped}";\n'
        f'  "B" -> "{escaped}";\n'
        "}\n"
    )


def test_graph_json_reparse_line_field():
    L = LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")}))
    graph = topological_graph(L)
    back = parse_graph_json(report_json(L))
    assert set(back.vertices) == set(critical_cells(L))
    for s in set((e.source, e.target) for e in graph.edges):
        assert back.multiplicity(*s) == graph.multiplicity(*s)


def test_graph_json_reparse_vector_field():
    V = VectorField(support.tetra(), frozenset({("v1", "e12"), ("e23", "f123")}))
    payload = json.loads(report_json(V))
    assert payload["corridors"] == [] and payload["closed_corridors"] == []
    back = parse_graph_json(report_json(V))
    assert set(back.vertices) == set(critical_cells_dvf(V))
    assert len(back.edges) == len(topological_graph(V).edges)


def test_json_closed_corridor_reported():
    payload = json.loads(report_json(LineField(support.slit_sphere(), frozenset())))
    assert [c["faces"] for c in payload["closed_corridors"]] == [["F"]]
    assert payload["separatrices"] == []


def test_emit_parse_fuzz_matchings():
    rng = random.Random(902)
    for S in support.random_corpus(903, 6):
        pairs = support.sample_matching(support.line_field_pairs(S), rng)
        L = LineField(S, frozenset(pairs))
        back = parse_line_field(emit_line_field(L))
        assert back.matching == L.matching
