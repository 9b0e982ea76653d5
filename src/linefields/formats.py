"""Text formats: the native surface file, OFF triangle meshes, DOT, JSON.

The native format is line oriented with `#` comments and a fixed section
order: one `surface` header, then `vertex`, `edge`, and `face ... walk`
declarations, then optional matching lines.  `match v e` lines describe a
vertex-edge matching; `vmatch lower upper` lines describe a cell matching
across one dimension.  A file may carry one kind of matching, not both.
"""

from __future__ import annotations

import io
import json
from operator import itemgetter

from .dynamics import Separatrix, TopologicalGraph, _branch
from .errors import ParseError, _Record
from .linefield import LineField
from .surface import SurfaceComplex, _canonical_rotation
from .vectorfield import VectorField

# Each directive's section rank, token count and refusal of a line with
# another count.  A face line has no fixed count (0): it needs an id, the
# `walk` keyword and at least one occurrence.
_DIRECTIVES = {
    "surface": (0, 2, "surface line needs exactly one name"),
    "vertex": (1, 2, "vertex line needs exactly one id"),
    "edge": (2, 4, "edge line needs id, tail, head"),
    "face": (3, 0, "face line needs id, walk keyword, occurrences"),
    "match": (4, 3, "match line needs vertex and edge"),
    "vmatch": (4, 3, "vmatch line needs lower and upper cell"),
}


class Document(_Record):
    """One parsed file: a complex plus whichever matching lines it had."""

    complex: SurfaceComplex
    match: frozenset[tuple[str, str]]
    vmatch: frozenset[tuple[str, str]]


def _rows(text: str):
    """(line number, tokens) of each non-blank line, its `#` comment cut off."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] if "#" in raw else raw for raw in lines]
    return filter(itemgetter(1), enumerate(map(str.split, lines), 1))


def parse_document(text: str) -> Document:
    """A native file's complex and matching lines.  Each line is refused at
    the first of the checks below that fails, in the order written.  The
    directive checks run on the first line of each run of lines with one
    directive, and on every surface line; each line of a run repeats only
    its token count, duplicate-id and reference checks.  Ids reuse their
    declared objects, and each walk is rotated as it is read."""
    name = None
    cells: dict[str, str] = {}  # each declared id: itself
    vertices: dict[str, str] = {}
    edges: dict[str, tuple[str, str]] = {}
    faces: dict[str, tuple] = {}
    pairs: dict[str, list[tuple[str, str]]] = {}  # the file's matching keyword: its pairs
    rank = -1
    run = None  # the directive of the current run; None after a surface line
    for num, tokens in _rows(text):
        keyword = tokens[0]
        if keyword != run:
            if keyword not in _DIRECTIVES:
                raise ParseError(f"unknown directive {keyword}", line=num)
            section, count, usage = _DIRECTIVES[keyword]
            if section < rank:
                raise ParseError(f"{keyword} line out of section order", line=num)
            rank = section
            if keyword == "surface" and name is not None:
                raise ParseError("second surface line", line=num)
            if keyword == "vertex" and name is None:
                raise ParseError("vertex line before the surface line", line=num)
            if section == 4:
                if pairs and keyword not in pairs:
                    raise ParseError(f"{keyword} line in a {next(iter(pairs))} file", line=num)
                matched = pairs.setdefault(keyword, [])
            elif section == 3:  # the edge section is over
                table = {t + e: (s, e) for e in edges for t, s in (("+", 1), ("-", -1))}
            run = keyword if section else None
        if (len(tokens) != count) if count else (len(tokens) < 4 or tokens[2] != "walk"):
            raise ParseError(usage, line=num)
        cid = tokens[1]
        if section == 4:
            upper = tokens[2]
            matched.append((cells.get(cid, cid), cells.get(upper, upper)))
        elif section:  # a cell: vertex, edge or face
            if cid in cells:
                raise ParseError(f"duplicate id {cid}", line=num)
            cells[cid] = cid
            if section == 1:
                vertices[cid] = cid
            elif section == 2:
                tail, head = tokens[2], tokens[3]
                if tail not in vertices or head not in vertices:
                    unknown = head if tail in vertices else tail
                    raise ParseError(f"edge {cid} references unknown vertex {unknown}", line=num)
                edges[cid] = (vertices[tail], vertices[head])
            else:
                keys = tokens[3:]
                walk = [*map(table.get, keys)]
                if None in walk:
                    for tok in keys:
                        if len(tok) < 2 or tok[0] not in "+-":
                            raise ParseError(f"occurrence {tok} needs a +/- sign", line=num)
                        if tok[1:] not in edges:
                            raise ParseError(f"walk references unknown edge {tok[1:]}", line=num)
                faces[cid] = _canonical_rotation(walk)
        else:
            name = cid
    if name is None:
        raise ParseError("missing surface line")
    # Each line's checks refuse all that the constructor would.
    S = SurfaceComplex._from_checked(frozenset(vertices), edges, faces, name)
    return Document(S, frozenset(pairs.get("match", ())), frozenset(pairs.get("vmatch", ())))


def parse_complex(text: str) -> SurfaceComplex:
    doc = parse_document(text)
    if doc.match or doc.vmatch:
        raise ParseError("matching lines in a bare complex file")
    return doc.complex


def parse_line_field(text: str) -> LineField:
    doc = parse_document(text)
    if doc.vmatch:
        raise ParseError("vmatch lines describe a vector field, not a line field")
    return LineField(doc.complex, doc.match)


def parse_vector_field(text: str) -> VectorField:
    doc = parse_document(text)
    if doc.match:
        raise ParseError("match lines describe a line field, not a vector field")
    return VectorField(doc.complex, doc.vmatch)


def emit_complex(S: SurfaceComplex) -> str:
    edges, faces = S.edges, S.faces
    return "".join([
        f"surface {S.name}\n",
        *[f"vertex {v}\n" for v in sorted(S.vertices)],
        *[f"edge {e} {edges[e][0]} {edges[e][1]}\n" for e in sorted(edges)],
        *[f"face {f} walk {' '.join(['+' + e if s > 0 else '-' + e for s, e in faces[f]])}\n"
          for f in sorted(faces)],
    ])


def emit_line_field(L: LineField) -> str:
    return emit_complex(L.complex) + "".join(f"match {v} {e}\n" for v, e in L._pairs)


def emit_vector_field(V: VectorField) -> str:
    return emit_complex(V.complex) + "".join(f"vmatch {lo} {up}\n" for lo, up in V._pairs)


# ---- OFF import -----------------------------------------------------------

def parse_off(text: str) -> SurfaceComplex:
    """Build a complex from an ASCII OFF triangle mesh.

    Triangles are oriented as listed; edges are identified by unordered
    vertex pair.  A pair on three triangles is a hard error, but a pair on
    only one is left for validation to report, so near-miss meshes still
    parse.  Its ids are distinct and its indices range-checked: no constructor check.
    """
    rows = list(_rows(text))
    if not rows:
        raise ParseError("empty OFF file")
    pos = 0
    if rows[0][1] == ["OFF"]:
        pos = 1
    if pos >= len(rows) or len(rows[pos][1]) != 3:
        raise ParseError("missing vertex/face/edge count line", line=rows[min(pos, len(rows) - 1)][0])
    try:
        n_vertices, n_faces, _n_edges = (int(t) for t in rows[pos][1])
    except ValueError:
        raise ParseError("counts are not integers", line=rows[pos][0])
    if min(n_vertices, n_faces, _n_edges) < 0:
        raise ParseError("counts must not be negative", line=rows[pos][0])
    pos += 1
    if len(rows) - pos < n_vertices + n_faces:
        raise ParseError(f"expected {n_vertices} vertex and {n_faces} face lines")
    pos += n_vertices  # coordinates are ignored
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges: dict[str, tuple[str, str]] = {}
    by_pair: dict[tuple[int, int], list] = {}  # per vertex pair: [edge id, tail, uses]
    faces: dict[str, tuple] = {}
    for k in range(n_faces):
        num, tokens = rows[pos + k]
        try:
            count = int(tokens[0])
            indices = [int(t) for t in tokens[1 : 1 + count]]
        except (ValueError, IndexError):
            raise ParseError("bad face line", line=num)
        if count != 3 or len(indices) != 3:
            raise ParseError("only triangle faces are supported", line=num)
        if any(i < 0 or i >= n_vertices for i in indices):
            raise ParseError("vertex index out of range", line=num)
        walk = []
        for a, b in zip(indices, indices[1:] + indices[:1]):
            pair = (min(a, b), max(a, b))
            entry = by_pair.get(pair)
            if entry is None:
                entry = by_pair[pair] = [f"e{a}_{b}", a, 0]
                edges[entry[0]] = (f"v{a}", f"v{b}")
            eid, tail, used = entry
            if used == 2:
                raise ParseError(
                    f"edge between v{pair[0]} and v{pair[1]} lies on three faces", line=num
                )
            entry[2] = used + 1
            walk.append((1 if tail == a else -1, eid))
        faces[f"f{k}"] = _canonical_rotation(walk)
    return SurfaceComplex._from_checked(frozenset(vertices), edges, faces, "off_import")


# ---- DOT and JSON export --------------------------------------------------

def _half_text(doubled: int) -> str:
    """Half of `doubled`, as an integer or as k/2."""
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


_SHAPES = {0: "circle", 1: "diamond", 2: "box"}


def _dot_string(text: str) -> str:
    """`text` as a quoted DOT string; cell ids may hold quotes and backslashes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_dot(field) -> str:
    """Topological graph in DOT, byte stable for a given field.

    Critical vertices are circles, faces boxes, and for cell matchings
    critical edges diamonds.  Node order follows the sorted critical set;
    edge order follows walk positions of the source cells.
    """
    graph = field.graph()
    crit = field.doubled_critical()
    S = field.complex
    node = {cell: _dot_string(cell) for cell in graph.vertices}
    lines = ["digraph topological_graph {"]
    for cell in graph.vertices:
        shape = _SHAPES[S.dim_of(cell)]
        label = _dot_string(f"{cell} (idx={_half_text(crit[cell])})")
        lines.append(f"  {node[cell]} [shape={shape}, label={label}];")
    for source, target, _key, _start, _rank in graph._rows:
        lines.append(f"  {node[source]} -> {node[target]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_string = json.encoder.encode_basestring_ascii

# A list inside a report entry (a path's cells or steps, a corridor's faces
# or crossings, an edge's ends or a face's walk) holds its items on lines
# indented by 8 and separated by _ITEM.
_ITEM = ",\n        "


def _items(texts: list[str], pad: str = "      ", brackets: str = "[]") -> str:
    """The list (or object) of encoded `texts`, as json.dumps(..., indent=2)
    writes it on a line indented by `pad`; by default a list inside a
    report entry."""
    if not texts:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(texts) + f"\n{pad}{brackets[1]}"


def _complex_text(S: SurfaceComplex) -> str:
    """The report's complex, as json.dumps(..., indent=2) writes it."""
    vertices = list(map(_string, sorted(S.vertices)))
    edges = [f"{_string(e)}: {_items(list(map(_string, S.edges[e])))}" for e in sorted(S.edges)]
    faces = [
        f"{_string(f)}: {_items([_string('+' + e if s > 0 else '-' + e) for s, e in S.faces[f]])}"
        for f in sorted(S.faces)
    ]
    return (
        f'{{\n    "name": {_string(S.name)},\n    "vertices": {_items(vertices, "    ")},'
        f'\n    "edges": {_items(edges, "    ", "{}")},'
        f'\n    "faces": {_items(faces, "    ", "{}")}\n  }}'
    )


def _critical_entries(field, pad: str):
    """Each critical cell's entry, as json.dumps(..., indent=2) writes it
    on a line indented by `pad`."""
    S, crit = field.complex, field.doubled_critical()
    return (
        f'{{\n{pad}  "cell": {_string(c)},\n{pad}  "dim": {S.dim_of(c)},'
        f'\n{pad}  "doubled_index": {crit[c]}\n{pad}}}'
        for c in sorted(crit)
    )


def _pair_text(pair, pad: str) -> str:
    """A (cell id, int) pair as a JSON list on a line indented by `pad`."""
    cell, number = pair
    return f"[\n{pad}  {_string(cell)},\n{pad}  {number}\n{pad}]"


def _label_text(label) -> str:
    """A path step's label as a list item inside a report entry: an edge id,
    or a (cell, key) witness."""
    return _string(label) if type(label) is str else _pair_text(label, "        ")


def _runs(steps, ways, starts) -> dict:
    """The run table of one report, over the cells with exactly one step
    on the walks from `starts` that `ways` counts (at a branch cell, only
    successors with a counted walk are followed).

    Each such cell points to its one successor, and the field is acyclic,
    so these cells form a forest; heavy-path decomposition (Sleator and
    Tarjan, 1983) splits it into runs, and a walk towards a root passes
    O(log cells) of them.  Each cell on a run of two or more maps to
    (cells text, labels text, its offset in each, the cell after the run):
    a run's encoded cell ids and encoded step labels, each joined by
    _ITEM, so a slice from a cell's offset to the end is that stretch of
    the report's path lists.
    """
    order = []  # every cell after its successor
    seen = set()
    todo = list(starts)
    while todo:
        cell = todo.pop()
        chain = []
        while cell not in seen:
            seen.add(cell)
            out = steps.get(cell, ())
            if len(out) != 1:
                todo += [nxt for _label, nxt in out if ways[nxt]]
                break
            chain.append(cell)
            cell = out[0][1]
        order += reversed(chain)
    size = dict.fromkeys(order, 1)
    heavy = {}  # each cell's predecessor with the largest subtree
    for cell in reversed(order):
        nxt = steps[cell][0][1]
        if nxt in size:
            size[nxt] += size[cell]
            light = heavy.get(nxt)
            if light is None or size[cell] > size[light]:
                heavy[nxt] = cell
    table = {}
    for top in order:
        after = steps[top][0][1]
        if heavy.get(after) == top or top not in heavy:
            continue  # inside a run, or a run of one cell
        run = [top]
        while run[-1] in heavy:
            run.append(heavy[run[-1]])
        run.reverse()
        cells = list(map(_string, run))
        labels = [_label_text(steps[cell][0][0]) for cell in run]
        cells_text, labels_text = _ITEM.join(cells), _ITEM.join(labels)
        at_cell = at_label = 0
        for cell, cell_text, label_text in zip(run, cells, labels):
            table[cell] = (cells_text, labels_text, at_cell, at_label, after)
            at_cell += len(cell_text) + len(_ITEM)
            at_label += len(label_text) + len(_ITEM)
    return table


def _walk_texts(steps, ways, runs, cell, k) -> tuple[list[str], list[str]]:
    """The encoded cells and labels of the k-th walk from `cell`, as
    _nth_walk picks it: one slice of `runs` per run the walk passes, and
    one encoded cell (and label) at each other cell."""
    cells, labels = [], []
    while True:
        run = runs.get(cell)
        if run is not None:
            cells_text, labels_text, at_cell, at_label, cell = run
            cells.append(cells_text[at_cell:])
            labels.append(labels_text[at_label:])
            continue
        cells.append(_string(cell))
        out = steps.get(cell)
        if not out:
            return cells, labels
        if len(out) == 1:
            ((label, cell),) = out
        else:
            (label, cell), k = _branch(out, ways, k)
        labels.append(_label_text(label))


def _separatrix_texts(field, graph):
    """Each separatrix's report entry, read from a row of the field's
    graph, its path lists written from one run table built for the whole
    graph."""
    steps, ways, _make = graph._walks
    cells_key, steps_key = map(_string, field._path_keys)
    runs = _runs(steps, ways, [row[3] for row in graph._rows])
    for source, target, occurrence, start, rank in graph._rows:
        cells, labels = _walk_texts(steps, ways, runs, start, rank)
        yield (
            f'{{\n      "source": {_string(source)},\n      "target": {_string(target)},'
            f'\n      "occurrence": {occurrence},\n      {cells_key}: {_items(cells)},'
            f'\n      {steps_key}: {_items(labels)}\n    }}'
        )


def _crossings_text(c) -> str:
    """A traced corridor's crossings, read from its edges and flat slots."""
    slots = iter(c._slots)
    return _items([
        f'{{\n          "edge": {_string(edge)},'
        f'\n          "depart": {_pair_text(depart, "          ")},'
        f'\n          "arrive": {_pair_text(arrive, "          ")}\n        }}'
        for edge, depart, arrive in zip(c._edges, slots, slots)
    ])


def _corridor_text(c) -> str:
    return (
        f'{{\n      "start": {_string(c.start)},\n      "end": {_string(c.end)},'
        f'\n      "interior": {_items(list(map(_string, c.interior)))},'
        f'\n      "crossings": {_crossings_text(c)}\n    }}'
    )


def _closed_corridor_text(c) -> str:
    return (
        f'{{\n      "faces": {_items(list(map(_string, c.faces)))},'
        f'\n      "crossings": {_crossings_text(c)}\n    }}'
    )


def write_report(field, fp) -> None:
    """Write report_json's text to `fp`: the complex, then each list of the
    report one entry at a time, so no separatrix path is held longer than
    it takes to write it.  A separatrix's path lists are copied from
    slices of a run table built once per report, so the report's Python
    work is O(cells + separatrices x log cells), plus one step per branch
    cell on a printed X-path.  A cyclic field is refused before the first
    byte."""
    graph = field.graph()
    corridors, closed = field.corridors()
    matching = (
        f"[\n      {_string(a)},\n      {_string(b)}\n    ]" for a, b in field._pairs
    )
    fp.write('{\n  "complex": ' + _complex_text(field.complex))
    for key, entries in (
        ("matching", matching),
        ("critical", _critical_entries(field, "    ")),
        ("separatrices", _separatrix_texts(field, graph)),
        ("corridors", map(_corridor_text, corridors)),
        ("closed_corridors", map(_closed_corridor_text, closed)),
    ):
        fp.write(f',\n  "{key}": ')
        opening = "[\n    "
        for entry in entries:
            fp.write(opening + entry)
            opening = ",\n    "
        fp.write("[]" if opening == "[\n    " else "\n  ]")
    fp.write("\n}\n")


def report_json(field) -> str:
    """Full decomposition report as deterministic JSON, the text
    json.dumps(payload, indent=2) gives plus a newline.

    Cell matchings have no corridor notion, so those arrays stay empty for
    them.  All index values are doubled integers.
    """
    out = io.StringIO()
    write_report(field, out)
    return out.getvalue()


# Not exported: perfbench/jobs.py hands it to its graph oracle.
def parse_graph_json(text: str) -> TopologicalGraph:
    """Rebuild the multigraph recorded by report_json, witnesses dropped."""
    payload = json.loads(text)
    vertices = tuple(entry["cell"] for entry in payload["critical"])
    edges = tuple(
        Separatrix(s["source"], s["target"], s["occurrence"], None)
        for s in payload["separatrices"]
    )
    return TopologicalGraph(vertices, edges)
