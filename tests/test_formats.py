"""Native file format, OFF import, and DOT/JSON export."""

import json
import random
import re
from pathlib import Path

import pytest
from isomorphism import complexes_isomorphic
import model
import support

from linefields import (
    CyclicFieldError,
    LineField,
    ParseError,
    VectorField,
    critical_cells,
    critical_cells_dvf,
    emit_complex,
    emit_line_field,
    emit_vector_field,
    graph_dot,
    parse_complex,
    parse_document,
    parse_line_field,
    parse_off,
    parse_vector_field,
    report_json,
)
from linefields.formats import Document, parse_graph_json
from linefields.surface import SurfaceComplex

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
        ("surface\n", "line 1: surface line needs exactly one name"),
        ("surface s\nvertex v\nedge e v\n", "line 3: edge line needs id, tail, head"),
        ("surface s\nvertex v\nedge e v v\nface e walk +e -e\n", "line 4: duplicate id e"),
        ("surface s\nvertex v\nedge e v v\nface F walk +e +e\nvmatch v e\nmatch v e\n", "line 6: match line in a vmatch file"),
        ("surface s\nvertex v\nedge e v v\nface F walk +e +e\nmatch v\n", "line 5: match line needs vertex and edge"),
        ("surface s\nvertex v\nedge e v v\nface F walk +e +e\nvmatch v e F\n", "line 5: vmatch line needs lower and upper cell"),
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


# ---- the parser against a frozen copy of its earlier form ------------------

_REFERENCE_DIRECTIVES = {
    "surface": (0, 2, "surface line needs exactly one name"),
    "vertex": (1, 2, "vertex line needs exactly one id"),
    "edge": (2, 4, "edge line needs id, tail, head"),
    "face": (3, 0, "face line needs id, walk keyword, occurrences"),
    "match": (4, 3, "match line needs vertex and edge"),
    "vmatch": (4, 3, "vmatch line needs lower and upper cell"),
}


def _reference_parse(text):
    """parse_document as it was before it shared ids and rotated walks as it
    read them: a per-token loop reads each walk in file order, and the
    checking constructor rotates every walk at the end."""
    name = None
    vertices, edges, faces, pairs, seen = set(), {}, {}, {}, set()
    rank = -1
    for num, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword not in _REFERENCE_DIRECTIVES:
            raise ParseError(f"unknown directive {keyword}", line=num)
        section, count, usage = _REFERENCE_DIRECTIVES[keyword]
        if section < rank:
            raise ParseError(f"{keyword} line out of section order", line=num)
        rank = section
        if keyword == "surface" and name is not None:
            raise ParseError("second surface line", line=num)
        if keyword == "vertex" and name is None:
            raise ParseError("vertex line before the surface line", line=num)
        if section == 4 and pairs and keyword not in pairs:
            raise ParseError(f"{keyword} line in a {next(iter(pairs))} file", line=num)
        if (len(tokens) != count) if count else (len(tokens) < 4 or tokens[2] != "walk"):
            raise ParseError(usage, line=num)
        cid = tokens[1]
        if 0 < section < 4:
            if cid in seen:
                raise ParseError(f"duplicate id {cid}", line=num)
            seen.add(cid)
        if keyword == "surface":
            name = cid
        elif keyword == "vertex":
            vertices.add(cid)
        elif keyword == "edge":
            for v in tokens[2:]:
                if v not in vertices:
                    raise ParseError(f"edge {cid} references unknown vertex {v}", line=num)
            edges[cid] = (tokens[2], tokens[3])
        elif keyword == "face":
            walk = []
            for tok in tokens[3:]:
                if len(tok) < 2 or tok[0] not in "+-":
                    raise ParseError(f"occurrence {tok} needs a +/- sign", line=num)
                if tok[1:] not in edges:
                    raise ParseError(f"walk references unknown edge {tok[1:]}", line=num)
                walk.append((1 if tok[0] == "+" else -1, tok[1:]))
            faces[cid] = tuple(walk)
        else:
            pairs.setdefault(keyword, []).append((cid, tokens[2]))
    if name is None:
        raise ParseError("missing surface line")
    S = SurfaceComplex(frozenset(vertices), edges, faces, name=name)
    return Document(S, frozenset(pairs.get("match", ())), frozenset(pairs.get("vmatch", ())))


# Every refusal parse_document can give, without its "line N: " prefix.
_REFUSALS = [
    r"unknown directive \S+",
    r"\S+ line out of section order",
    r"second surface line",
    r"vertex line before the surface line",
    r"v?match line in a v?match file",
    r"surface line needs exactly one name",
    r"vertex line needs exactly one id",
    r"edge line needs id, tail, head",
    r"face line needs id, walk keyword, occurrences",
    r"match line needs vertex and edge",
    r"vmatch line needs lower and upper cell",
    r"duplicate id \S+",
    r"edge \S+ references unknown vertex \S+",
    r"occurrence \S+ needs a \+/- sign",
    r"walk references unknown edge \S+",
    r"missing surface line",
]

_JUNK = ["x", "+", "-", "+zz", "-x", "walk", "#", "surface", "vertex", "edge", "face",
         "match", "vmatch"]


def _mutant(text, rng):
    """`text` after one to three seeded line edits: delete, duplicate, swap
    or truncate lines; add a comment line or a trailing comment; replace,
    delete or insert a token; flip or strip a sign, or switch a matching
    keyword to the other kind; rotate a walk."""
    lines = text.splitlines()
    words = text.split()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines.append(rng.choice(_JUNK))
            continue
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        op = rng.randrange(11)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            del lines[rng.randrange(i + 1):]  # keep a prefix, maybe empty
        elif op == 4:
            lines.insert(i, "# " + rng.choice(words))
        elif op == 5:
            lines[i] += " #" + rng.choice(words)
        elif tokens:
            k = rng.randrange(len(tokens))
            tok = tokens[k]
            if op == 6:
                tokens[k] = rng.choice(rng.choice((_JUNK, words)))
            elif op == 7:
                del tokens[k]
            elif op == 8:
                tokens.insert(k, rng.choice(rng.choice((_JUNK, words))))
            elif op == 9 and tok in ("match", "vmatch"):
                tokens[k] = "vmatch" if tok == "match" else "match"
            elif op == 9:
                sign = "+" if tok[:1] == "-" else "-"
                tokens[k] = tok[1:] if rng.random() < 0.3 else sign + tok[1:]
            elif len(tokens) > 4:
                r = rng.randrange(1, len(tokens) - 3)
                tokens[3:] = tokens[3 + r:] + tokens[3:3 + r]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text):
    """A parse's refusal (message and line), or its document with the
    walks, the edges and the name in the order and form they were built."""
    try:
        doc = parse(text)
    except ParseError as exc:
        return ("refused", str(exc), exc.line)
    S = doc.complex
    assert type(S.vertices) is frozenset
    return (doc, S.name, list(S.edges.items()), list(S.faces.items()))


def test_parser_matches_reference_on_mutated_lines():
    """parse_document and _reference_parse agree on 2 400 seeded mutants of
    the golden inputs and the corpus texts (complexes, line fields and
    vector fields): the same document, walks in the same order and rotation
    and the same name, or the same ParseError at the same line.  Every
    refusal is reached."""
    rng = random.Random(823)
    texts = [path.read_text() for path in sorted((GOLD / "fields").glob("*.txt"))]
    for S in support.random_corpus(822, 30, max_moves=4) + [b() for b in support.all_seed_builders()]:
        texts.append(emit_complex(S))
        texts.append(emit_line_field(LineField(S, support.sample_matching(support.line_field_pairs(S), rng))))
        texts.append(emit_vector_field(VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))))
    hits = dict.fromkeys(_REFUSALS, 0)
    parsed = 0
    for k in range(2400):
        text = _mutant(rng.choice(texts), rng)
        got = _parse_outcome(parse_document, text)
        assert got == _parse_outcome(_reference_parse, text), text
        if got[0] == "refused":
            message = got[1].split(": ", 1)[1] if got[2] is not None else got[1]
            (pattern,) = [p for p in _REFUSALS if re.fullmatch(p, message)]
            hits[pattern] += 1
        else:
            parsed += 1
    assert all(hits.values()), [p for p, n in hits.items() if not n]
    assert parsed >= 200


def test_parser_matches_reference_at_run_boundaries():
    """parse_document checks each directive once per run of lines with one
    directive.  It agrees with _reference_parse, which checks every line,
    on 900 seeded edits that start or break a run: a line of another
    directive inserted inside a run, a second surface line directly after
    the first, and a matching line of the other kind inserted inside a run
    of match or vmatch lines.  Each edit is refused at its line, or for
    the first, at the line after it."""
    rng = random.Random(827)
    texts = [path.read_text() for path in sorted((GOLD / "fields").glob("*.txt"))]
    for S in support.random_corpus(828, 20, max_moves=4) + [b() for b in support.all_seed_builders()]:
        texts.append(emit_line_field(LineField(S, support.sample_matching(support.line_field_pairs(S), rng))))
        texts.append(emit_vector_field(VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))))
    hits = dict.fromkeys(("inside a run", "second surface", "other matching"), 0)
    for k in range(900):
        lines = rng.choice(texts).splitlines()
        keys = [line.split()[0] for line in lines]
        # Positions between two lines of one directive, and of one matching kind.
        inside = [i for i in range(1, len(lines)) if keys[i - 1] == keys[i]]
        matching = [i for i in inside if keys[i] in ("match", "vmatch")]
        edit = ("inside a run", "second surface", "other matching")[k % 3]
        if edit == "inside a run" and inside:
            i = rng.choice(inside)
            line = rng.choice([x for x, key in zip(lines, keys) if key != keys[i]])
            expect = (i + 1, i + 2)
        elif edit == "second surface":
            i = keys.index("surface") + 1
            line = rng.choice([lines[i - 1], "surface other"])
            expect = (i + 1,)
        elif edit == "other matching" and matching:
            i = rng.choice(matching)
            line = f"{'vmatch' if keys[i] == 'match' else 'match'} {rng.choice(lines[i].split()[1:])} x"
            expect = (i + 1,)
        else:
            continue
        lines.insert(i, line)
        text = "\n".join(lines) + "\n"
        got = _parse_outcome(parse_document, text)
        assert got == _parse_outcome(_reference_parse, text), text
        assert got[0] == "refused" and got[2] in expect, (got, text)
        hits[edit] += 1
    assert min(hits.values()) >= 150, hits


def test_parsed_ids_are_the_declared_objects():
    """Each reference to a cell id is the object of its declaration: every
    edge end is an element of the vertex set, every walk's edge id a key of
    the edge map, and every matched cell the declared cell, by identity."""
    rng = random.Random(826)
    texts = [path.read_text() for path in sorted((GOLD / "fields").glob("*.txt"))]
    for S in (support.grid_torus(4, 5), support.grid_klein(5, 4)):
        texts.append(emit_line_field(support.forest_field(S, rng, 0.8)))
        texts.append(emit_vector_field(support.serpentine_torus(4, 4)[0]))
    for text in texts:
        doc = parse_document(text)
        S = doc.complex
        vertex = {v: v for v in S.vertices}
        edge = {e: e for e in S.edges}
        cell = {**vertex, **edge, **{f: f for f in S.faces}}
        assert all(t is vertex[t] and h is vertex[h] for t, h in S.edges.values())
        assert all(e is edge[e] for walk in S.faces.values() for _s, e in walk)
        assert all(a is cell[a] and b is cell[b] for a, b in doc.match | doc.vmatch)
        assert doc.match | doc.vmatch


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


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty OFF file"),
        ("# a comment\n\n   \n", "empty OFF file"),
        ("OFF\n", "line 1: missing vertex/face/edge count line"),
        ("OFF\n3 x 1\n", "line 2: counts are not integers"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n", "expected 3 vertex and 1 face lines"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 z\n", "line 6: bad face line"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n\n", "expected 3 vertex and 1 face lines"),
    ],
)
def test_off_parse_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_off(text)
    assert str(err.value) == message


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
    graph = L.graph()
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
    assert len(back.edges) == len(V.graph().edges)


def test_json_closed_corridor_reported():
    payload = json.loads(report_json(LineField(support.slit_sphere(), frozenset())))
    assert [c["faces"] for c in payload["closed_corridors"]] == [["F"]]
    assert payload["separatrices"] == []


# A square on the sphere whose ids hold a quote, a backslash, a non-ASCII
# letter and an astral-plane character (U+1F600), as vertex, edge and face
# ids; vé's edge is matched, so one separatrix lists vertices and edges.
ESCAPED_IDS = """surface s
vertex q"
vertex b\\
vertex vé
vertex v\U0001F600
edge e" q" b\\
edge e\\ b\\ vé
edge eé vé v\U0001F600
edge e\U0001F600 v\U0001F600 q"
face F" walk +e" +e\\ +eé +e\U0001F600
face Gé\U0001F600\\ walk -e\U0001F600 -eé -e\\ -e"
match vé eé
"""


def test_json_escapes_ids_in_keys_and_items():
    text = report_json(parse_line_field(ESCAPED_IDS))
    assert text.isascii()
    lines = text.splitlines()
    # List items: the complex's vertices, a separatrix's vertices and edges.
    for line in (
        r'      "b\\",',
        r'      "q\"",',
        r'      "v\u00e9",',
        r'      "v\ud83d\ude00"',
        r'        "v\u00e9",',
        r'        "e\u00e9"',
        r'      "source": "G\u00e9\ud83d\ude00\\",',
    ):
        assert line in lines, line
    # Dict keys: edge and face ids.
    for line in (
        r'      "e\"": [',
        r'      "e\\": [',
        r'      "e\u00e9": [',
        r'      "e\ud83d\ude00": [',
        r'      "F\"": [',
        r'      "G\u00e9\ud83d\ude00\\": [',
    ):
        assert line in lines, line
    faces = json.loads(text)["complex"]["faces"]
    assert list(faces) == ['F"', "Gé\U0001F600\\"]


def reference_report(field) -> dict:
    """The report's payload as a dict tree, for json.dumps to encode."""
    S, crit = field.complex, field.doubled_critical()
    corridors, closed = field.corridors()

    def crossings(c):
        return [{"edge": x.edge, "depart": list(x.depart), "arrive": list(x.arrive)} for x in c.crossings]

    def path_keys(p):
        if isinstance(field, LineField):
            return {"vertices": list(p.vertices), "edges": list(p.edges)}
        return {"cells": list(p.cells), "witnesses": [list(w) for w in p.witnesses]}

    return {
        "complex": {
            "name": S.name,
            "vertices": sorted(S.vertices),
            "edges": {e: list(S.edges[e]) for e in sorted(S.edges)},
            "faces": {f: [model.text(o) for o in S.faces[f]] for f in sorted(S.faces)},
        },
        "matching": [list(p) for p in sorted(field.matching)],
        "critical": [
            {"cell": c, "dim": S.dim_of(c), "doubled_index": crit[c]} for c in sorted(crit)
        ],
        "separatrices": [
            {"source": s.source, "target": s.target, "occurrence": s.occurrence, **path_keys(s.path)}
            for s in field.graph().edges
        ],
        "corridors": [
            {"start": c.start, "end": c.end, "interior": list(c.interior), "crossings": crossings(c)}
            for c in corridors
        ],
        "closed_corridors": [{"faces": list(c.faces), "crossings": crossings(c)} for c in closed],
    }


def report_fields():
    """Random-corpus fields of both kinds, forest and tree-cotree fields on
    6x6 grids, the golden fields and the escaped-id field, and long-suffix
    fields: spanning trees on 16x16 grids (long shared suffixes, many
    branching subtrees), a tree-cotree field over one of them, and the
    snake line and vector fields."""
    rng = random.Random(1401)
    fields = [parse_line_field(ESCAPED_IDS)]
    for S in support.random_corpus(1402, 30):
        fields.append(LineField(S, support.sample_matching(support.line_field_pairs(S), rng)))
        fields.append(
            VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
        )
    for S in (support.grid_torus(6, 6), support.grid_klein(6, 6)):
        forest = support.forest_field(S, rng, 1.0)
        fields.append(forest)
        pairs = support.tree_cotree(S, dict(forest.matching))
        if pairs is not None:
            fields.append(VectorField(S, pairs))
    torus, klein = support.grid_torus(16, 16), support.grid_klein(16, 16)
    fields.append(support.forest_field(torus, rng, 1.0))
    tree = support.forest_field(klein, rng, 1.0)
    fields += [tree, VectorField(klein, support.tree_cotree(klein, dict(tree.matching)))]
    fields += [support.serpentine_line_field(12, 12), support.serpentine_torus(8, 8)[0]]
    fields += [LineField(S) for _stem, S in golden_pairs()]
    for path in sorted((GOLD / "fields").glob("*.txt")):
        doc = parse_document(path.read_text())
        fields.append(
            VectorField(doc.complex, doc.vmatch) if doc.vmatch else LineField(doc.complex, doc.match)
        )
    return fields


def test_streamed_report_equals_json_dumps():
    reported = {LineField: 0, VectorField: 0}
    refused = 0
    for field in report_fields():
        if field.problems():
            continue
        if field.closed_path() is not None:
            with pytest.raises(CyclicFieldError):
                report_json(field)
            refused += 1
            continue
        assert report_json(field) == json.dumps(reference_report(field), indent=2) + "\n"
        reported[type(field)] += 1
    assert min(reported.values()) >= 15 and refused >= 5


def test_emit_parse_fuzz_matchings():
    rng = random.Random(902)
    for S in support.random_corpus(903, 6):
        pairs = support.sample_matching(support.line_field_pairs(S), rng)
        L = LineField(S, frozenset(pairs))
        back = parse_line_field(emit_line_field(L))
        assert back.matching == L.matching
