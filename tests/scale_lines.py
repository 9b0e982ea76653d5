"""Scaling gate on executed lines: the library's Python work per layer must
grow at most linearly in the cell count.

    PYTHONPATH=src python tests/scale_lines.py

For each field family below, at 24x24 and 48x48 (four times the cells,
and for the cone and the one-face polygon 24*24 and 48*48 sides, for the
pillow as many bigons), it emits the field's file and counts the `line` events that `sys.settrace`
reports in `src/linefields/` while each layer runs: parse_document, then
problems(), closed_path(), graph(), corridors(), report_json and
graph_dot on the parsed field, in that order, as the CLI runs them, then
split_face on the parsed complex's first face in sorted order, between
corners 0 and 2, and delete_edge_merge_faces on its first edge in sorted
order that lies on two faces, where one does, dual() on the parsed
complex, where it has one, and is_radial on the parsed complex's radial
refinement (radial_decomposition, not counted), which builds and drops
the two factor complexes.  Where the field has one critical vertex, a
path query to it follows, on the parsed field: for a line field paths()
from the least vertex unless that is the critical one (the snake's head,
whose chain passes every vertex), for a vector field count_paths() from
the least critical edge.  A line field is then emitted with
emit_line_field and goes through homotopy_core and, where the field has
one, one merge_critical_faces
move (the first pair of critical faces in sorted order that a corridor
joins and the move accepts; the pillow's n-gons are joined by n corridors,
so it has none) and one cancel_vertex_face move (the first critical
face and vertex in sorted order that the move accepts), and a vector
field through emit_vector_field ("emit_vector_field own"), dvf_to_dlf,
emit_line_field and vertex_link_cycles() on that image, dlf_to_dvf on it
and emit_vector_field on both factors together.  A layer fails when its
exponent, log(lines ratio) / log(cells ratio), is over 1.05, or when it
runs at one size only.

A count of executed lines repeats exactly and does not depend on the host,
so the gate needs one run per point.  It cannot see work inside a C
builtin: a `sorted`, a `str.join` or an `in` on a list counts as one line.
Most families are long-chain fields, whose separatrix paths total far
more cells than the complex has: the snake line field on a grid torus,
spanning tree line fields on grid tori and Klein bottles, and the snake
tree-cotree vector field.  Each of those has one critical vertex, which
every chain reaches, so none admits a cancellation; a forest line field
on a grid torus that keeps each of its tree's pairs with probability 0.8
has many critical vertices and does.  The last family leaves the grids'
faces of length 4 and vertices of degree 4: a cone sphere (wheel) whose
one face has 24*24 or 48*48 sides, all joined to an apex, with the line
field {(u0, s0)}; its cancellation splits that face.  The pillow
(support.pillow) is two n-gons with a bigon on every edge, 24*24 or 48*48
of them, and the empty line field: homotopy_core collapses every bigon
into one n-gon, so a collapse that rewrites the absorbing walk once per
bigon is quadratic there.  The one-face polygon (support.one_face) is the
surface of genus g as a single 4g-gon of 24*24 or 48*48 sides on one
vertex, with the empty line field: one face, of length linear in the
cells, and one vertex whose degree is; no edge lies on two faces, so it
runs no delete_edge_merge_faces.  It runs under
PYTHONHASHSEED=0 (re-executing itself when another seed is set), so set
iteration order cannot move a count.  Standard library only.
"""

from __future__ import annotations

import math
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = str(HERE.parent / "src" / "linefields")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import support  # noqa: E402
from linefields import (  # noqa: E402
    LineField,
    VectorField,
    cancel_vertex_face,
    corridors_from,
    delete_edge_merge_faces,
    dlf_to_dvf,
    dvf_to_dlf,
    emit_line_field,
    emit_vector_field,
    graph_dot,
    homotopy_core,
    is_radial,
    merge_critical_faces,
    parse_document,
    radial_decomposition,
    report_json,
    split_face,
)
from linefields.errors import InvalidComplexError, OperationError  # noqa: E402

SIZES = (24, 48)
BAR = 1.05

FAMILIES = {
    "snake line field, torus": lambda n: support.serpentine_line_field(n, n),
    "spanning tree, torus": lambda n: support.forest_field(support.grid_torus(n, n), random.Random(n), 1.0),
    "spanning tree, Klein": lambda n: support.forest_field(support.grid_klein(n, n), random.Random(n), 1.0),
    "snake tree-cotree, torus": lambda n: support.serpentine_torus(n, n)[0],
    "forest, torus": lambda n: support.forest_field(support.grid_torus(n, n), random.Random(n), 0.8),
    "cone, n*n sides": lambda n: LineField(support.cone_sphere(n * n), frozenset({("u0", "s0")})),
    "pillow, n*n bigons": lambda n: LineField(support.pillow(n * n)),
    "one face, n*n sides": lambda n: LineField(support.one_face(n * n // 4)),
}


class LineCounter:
    """Counts `line` events in the package's own frames while a call runs."""

    def __init__(self):
        self.lines = 0

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines += 1
        return self._local

    def _call(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(PACKAGE) else None

    def count(self, call):
        """(lines executed in the package, result) of `call()`."""
        self.lines = 0
        sys.settrace(self._call)
        try:
            result = call()
        finally:
            sys.settrace(None)
        return self.lines, result


def merge_pair(L: LineField) -> tuple[str, str] | None:
    """The first critical faces f, g, in sorted order, that a corridor from
    f joins and merge_critical_faces accepts, or None; each end is tried
    once."""
    for f in sorted(c for c in L.doubled_critical() if c in L.complex.faces):
        for g in dict.fromkeys(corridor.end for corridor in corridors_from(L, f)):
            try:
                merge_critical_faces(L, f, g)
            except OperationError:
                continue
            return f, g
    return None


def cancel_pair(L: LineField) -> tuple[str, str] | None:
    """The first critical vertex v and face f, by face and then vertex in
    sorted order, that cancel_vertex_face(L, v, f) accepts, or None."""
    crit = L.doubled_critical()
    vertices = [v for v in crit if v in L.complex.vertices]
    for f in sorted(f for f in crit if f in L.complex.faces and crit[f] < 0):
        for v in vertices:
            try:
                cancel_vertex_face(L, v, f)
            except OperationError:
                continue
            return v, f
    return None


def layer_lines(field) -> tuple[int, dict[str, int]]:
    """The complex's cell count and each layer's line count.  The analysis
    layers, the two surgery moves, the dual, the radial check of the
    refinement and the path query run in order on one field parsed from
    `field`'s file.  A
    line field is emitted, and the homotopy core and, where it has them,
    one merge of critical faces and one cancellation run on a second
    parsed field; a vector field is emitted, its image under dvf_to_dlf is
    emitted, its link cycles are decoded, it goes back through dlf_to_dvf,
    and both factors are emitted."""
    emit = emit_vector_field if isinstance(field, VectorField) else emit_line_field
    text = emit(field)
    counter = LineCounter()
    lines = {}
    lines["parse_document"], doc = counter.count(lambda: parse_document(text))
    S = doc.complex
    parsed = VectorField(S, doc.vmatch) if doc.vmatch else LineField(S, doc.match)
    for name, call in (
        ("problems", parsed.problems),
        ("closed_path", parsed.closed_path),
        ("graph", parsed.graph),
        ("corridors", parsed.corridors),
        ("report_json", lambda: report_json(parsed)),
        ("graph_dot", lambda: graph_dot(parsed)),
    ):
        lines[name], _result = counter.count(call)
    face = min(S.faces)
    lines["split_face"], _split = counter.count(
        lambda: split_face(S, face, 0, 2, "probe_d", "probe_a", "probe_b")
    )
    edge = min((e for e, slots in S.occurrence_index.items() if slots[0][0] != slots[1][0]),
               default=None)
    if edge is not None:
        lines["delete_edge_merge_faces"], _merged = counter.count(
            lambda: delete_edge_merge_faces(S, edge, "probe_m")
        )
    try:
        lines["dual"], _dual = counter.count(S.dual)
    except InvalidComplexError:
        pass  # a vertex with more than one link cycle: no dual
    R = radial_decomposition(S).complex
    lines["is_radial"], _radial = counter.count(lambda: is_radial(R))
    sinks = [c for c in parsed.doubled_critical() if c in S.vertices]
    if isinstance(parsed, LineField):
        head = min(S.vertices)
        if len(sinks) == 1 and sinks[0] != head:
            lines["paths"], _path = counter.count(lambda: parsed.paths(head, sinks[0]))
        lines["emit_line_field"], _text = counter.count(lambda: emit_line_field(parsed))
        fresh = LineField(parse_document(text).complex, doc.match)
        lines["homotopy_core"], _core = counter.count(lambda: homotopy_core(fresh))
        faces = merge_pair(parsed)
        if faces is not None:
            lines["merge_critical_faces"], _merged = counter.count(
                lambda: merge_critical_faces(fresh, *faces)
            )
        pair = cancel_pair(parsed)
        if pair is not None:
            lines["cancel_vertex_face"], _cancelled = counter.count(
                lambda: cancel_vertex_face(fresh, *pair)
            )
    else:
        if len(sinks) == 1:
            edge = min(c for c in parsed.doubled_critical() if c in S.edges)
            lines["count_paths"], _count = counter.count(lambda: parsed.count_paths(edge, sinks[0]))
        lines["emit_vector_field own"], _text = counter.count(lambda: emit_vector_field(parsed))
        lines["dvf_to_dlf"], image = counter.count(lambda: dvf_to_dlf(parsed))
        lines["emit_line_field"], _text = counter.count(lambda: emit_line_field(image))
        lines["vertex_link_cycles"], _links = counter.count(image.complex.vertex_link_cycles)
        lines["dlf_to_dvf"], factors = counter.count(lambda: dlf_to_dvf(image))
        lines["emit_vector_field"], _texts = counter.count(
            lambda: [emit_vector_field(X) for X in factors]
        )
    return len(S.vertices) + len(S.edges) + len(S.faces), lines


def main() -> int:
    failures = []
    print(f"{'family':<26} {'layer':<24} {SIZES[0]}x{SIZES[0]:<8} {SIZES[1]}x{SIZES[1]:<8} exponent")
    for family, build in FAMILIES.items():
        (small, lo), (large, hi) = (layer_lines(build(n)) for n in SIZES)
        if lo.keys() != hi.keys():
            failures.append(f"{family}: layers {sorted(lo.keys() ^ hi.keys())} ran at one size only")
        for layer in [layer for layer in lo if layer in hi]:
            exponent = math.log(hi[layer] / lo[layer]) / math.log(large / small)
            print(f"{family:<26} {layer:<24} {lo[layer]:>10} {hi[layer]:>10} {exponent:8.3f}")
            if exponent > BAR:
                failures.append(f"{family}: {layer} grows with exponent {exponent:.3f} > {BAR}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
