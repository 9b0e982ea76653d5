"""One validity door for every operation that walks a field.

Each walking operation refuses an unsound field from the cached verdicts:
an invalid matching with OperationError("not a valid <kind>: <first
violation>"), checked first, then a complex that validate() faults with
InvalidComplexError(<first problem>).  Corridors read only which edges are
matched, so they refuse the complex alone.  An operation that takes cells
checks them first, so a bad argument is refused alike on any input.  The
readouts (problems(), doubled_critical(), closed_path(), is_radial,
dlf_to_dvf) answer on any input.
"""

import io

import pytest

import support
from support import w
from linefields import (
    DegenerateOperationError,
    InvalidComplexError,
    LineField,
    NotInImageError,
    OperationError,
    SurfaceComplex,
    VectorField,
    cancel_dvf,
    cancel_vertex_face,
    corridors_from,
    dlf_to_dvf,
    dvf_to_dlf,
    graph_dot,
    homotopy_core,
    is_radial,
    merge_critical_faces,
    ms_decomposition,
    report_json,
    split_face,
)
from linefields.formats import write_report


def bigons():
    """Every edge twice, but the walk of F does not chain."""
    return SurfaceComplex(frozenset("uv"), {"a": ("u", "v"), "b": ("u", "v")},
                          {"F": w("+a +b"), "G": w("-a -b")}, name="bigons")


def twisted_tetra():
    """The tetrahedron with one walk out of order: a break between triangles."""
    S = support.tetra()
    return SurfaceComplex(S.vertices, S.edges, {**S.faces, "f123": w("+e12 -e13 +e23")})


UNSOUND_COMPLEXES = {
    "open tetrahedron": support.tetra_without_face,
    "bigons": bigons,
    "twisted tetrahedron": twisted_tetra,
    "disjoint union": lambda: support.disjoint_union(
        support.tetra(), support.suffixed(support.tetra(), "_z")),
}

BAD_LINE_PAIRS = {
    "vertex off its edge": {("v1", "e23")},
    "unknown edge": {("v1", "nope")},
    "vertex in two pairs": {("v1", "e12"), ("v1", "e13")},
    "edge in two pairs": {("v1", "e12"), ("v2", "e12")},
}

BAD_VECTOR_PAIRS = {
    "dimensions differ by 2": {("v1", "f123")},
    "unknown cell": {("v1", "nope")},
    "edge off its face": {("e12", "f234")},
}


def _critical_faces(L):
    return [f for f in sorted(L.complex.faces) if len(L._unmatched[f]) != 2]


def _negative_face(L):
    return next(f for f in sorted(L.complex.faces) if len(L._unmatched[f]) > 2)


def _free_vertex(L):
    return next(v for v in sorted(L.complex.vertices) if v not in L._upper_of)


def _free(V, cells):
    return next(c for c in sorted(cells) if c not in V._upper_of and c not in V._lower_of)


# Each walking operation, with arguments its own checks accept, so that the
# door is what refuses.
LINE_OPERATIONS = {
    "graph()": lambda L: L.graph(),
    "graph_dot": graph_dot,
    "report_json": report_json,
    "write_report": lambda L: write_report(L, io.StringIO()),
    "ms_decomposition": ms_decomposition,
    "paths": lambda L: L.paths(*sorted(L.complex.vertices)[:2]),
    "count_paths": lambda L: L.count_paths(*sorted(L.complex.vertices)[:2]),
    "homotopy_core": homotopy_core,
    "merge_critical_faces": lambda L: merge_critical_faces(L, *_critical_faces(L)[:2]),
    "cancel_vertex_face": lambda L: cancel_vertex_face(
        L, _free_vertex(L), _negative_face(L)),
}
CORRIDOR_OPERATIONS = {
    "corridors()": lambda L: L.corridors(),
    "corridors_from": lambda L: corridors_from(L, sorted(L.complex.faces)[0]),
}
VECTOR_OPERATIONS = {
    "graph()": lambda V: V.graph(),
    "graph_dot": graph_dot,
    "report_json": report_json,
    "paths": lambda V: V.paths(_free(V, V.complex.edges), _free(V, V.complex.vertices)),
    "count_paths": lambda V: V.count_paths(_free(V, V.complex.edges),
                                           _free(V, V.complex.vertices)),
    "cancel_dvf": lambda V: cancel_dvf(V, _free(V, V.complex.edges),
                                       _free(V, V.complex.vertices)),
    "dvf_to_dlf": dvf_to_dlf,
}


def _refused(operation, field, kind, message):
    with pytest.raises(Exception) as caught:
        operation(field)
    assert type(caught.value) is kind and str(caught.value) == message


def _unsound_line_fields():
    """A line field on each unsound complex, matched so that two faces are
    critical and, on triangles, one has a negative index."""
    for name, build in UNSOUND_COMPLEXES.items():
        S = build()
        matching = {("u", "a")} if name == "bigons" else set()
        yield name, LineField(S, frozenset(matching))


@pytest.mark.parametrize("op", sorted(LINE_OPERATIONS.keys() | CORRIDOR_OPERATIONS.keys()))
def test_unsound_complex_is_refused_by_line_field_operations(op):
    operation = {**LINE_OPERATIONS, **CORRIDOR_OPERATIONS}[op]
    checked = 0
    for name, L in _unsound_line_fields():
        if name == "bigons" and op == "cancel_vertex_face":
            # No bigon has a negative index, and arguments are refused first.
            _refused(lambda L: cancel_vertex_face(L, "v", "F"), L, OperationError,
                     "face F has doubled index 1; cancellation needs a negative index")
            continue
        assert L.problems() == L.complex.validate() != []
        _refused(operation, L, InvalidComplexError, L.complex.validate()[0])
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("op", sorted(VECTOR_OPERATIONS))
def test_unsound_complex_is_refused_by_vector_field_operations(op):
    for build in UNSOUND_COMPLEXES.values():
        V = VectorField(build())
        _refused(VECTOR_OPERATIONS[op], V, InvalidComplexError, V.complex.validate()[0])


@pytest.mark.parametrize("op", sorted(LINE_OPERATIONS))
def test_invalid_line_matching_is_refused(op):
    for pairs in BAD_LINE_PAIRS.values():
        L = LineField(support.tetra(), frozenset(pairs))
        problem = L.problems()[0]
        _refused(LINE_OPERATIONS[op], L, OperationError, f"not a valid line field: {problem}")


@pytest.mark.parametrize("op", sorted(VECTOR_OPERATIONS))
def test_invalid_vector_matching_is_refused(op):
    for pairs in BAD_VECTOR_PAIRS.values():
        V = VectorField(support.tetra(), frozenset(pairs))
        problem = V.problems()[0]
        _refused(VECTOR_OPERATIONS[op], V, OperationError, f"not a valid vector field: {problem}")


# Operations that take cells check them before the door, on any input.
ARGUMENT_REFUSALS = {
    "LineField.count_paths": (lambda S: LineField(S).count_paths("nope", "v1"),
                              "nope is not a vertex of the complex"),
    "LineField.paths": (lambda S: LineField(S).paths("v1", "nope"),
                        "nope is not a vertex of the complex"),
    "VectorField.count_paths": (lambda S: VectorField(S).count_paths("nope", "v1"),
                                "nope is not a cell of the complex"),
    "merge_critical_faces": (lambda S: merge_critical_faces(LineField(S), "nope", "f123"),
                             "nope is not a face of the complex"),
    "cancel_vertex_face": (lambda S: cancel_vertex_face(LineField(S), "nope", "f123"),
                           "nope is not a vertex of the complex"),
}


@pytest.mark.parametrize("op", sorted(ARGUMENT_REFUSALS))
def test_arguments_are_refused_before_the_door(op):
    call, message = ARGUMENT_REFUSALS[op]
    S = support.tetra_without_face()
    assert S.validate()
    _refused(call, S, OperationError, message)


# split_face refuses a face the complex lacks, and positions that are not
# two distinct positions of the face's walk, with the messages of the moves.
SPLIT_REFUSALS = {
    "unknown face": (("nope", 0, 1), OperationError, "nope is not a face of the complex"),
    "position past the walk": (("f123", 0, 3), DegenerateOperationError,
                               "cannot split face f123 at positions 0, 3"),
    "negative position": (("f123", -1, 1), DegenerateOperationError,
                          "cannot split face f123 at positions -1, 1"),
}


@pytest.mark.parametrize("case", sorted(SPLIT_REFUSALS))
def test_split_face_refuses_bad_arguments(case):
    (face, p, q), kind, message = SPLIT_REFUSALS[case]
    _refused(lambda S: split_face(S, face, p, q, "d", "fa", "fb"), support.tetra(), kind, message)


def test_matching_is_refused_before_the_complex():
    L = LineField(support.tetra_without_face(), frozenset({("v1", "e23")}))
    V = VectorField(support.tetra_without_face(), frozenset({("v1", "f123")}))
    for field, kind in ((L, "line field"), (V, "vector field")):
        assert field.complex.validate()
        _refused(lambda F: F.graph(), field, OperationError,
                 f"not a valid {kind}: {field.problems()[len(field.complex.validate())]}")


def test_corridors_trace_an_invalid_matching():
    """Corridors read only which edges are matched: an invalid matching on a
    sound complex is traced, not refused."""
    for pairs in BAD_LINE_PAIRS.values():
        L = LineField(support.tetra(), frozenset(pairs))
        corridors, _closed = L.corridors()
        assert corridors == tuple(c for f in _critical_faces(L) for c in corridors_from(L, f))


def test_readouts_answer_on_any_input():
    fields = [L for _name, L in _unsound_line_fields()]
    fields += [VectorField(build()) for build in UNSOUND_COMPLEXES.values()]
    fields += [LineField(support.tetra(), frozenset(p)) for p in BAD_LINE_PAIRS.values()]
    fields += [VectorField(support.tetra(), frozenset(p)) for p in BAD_VECTOR_PAIRS.values()]
    for field in fields:
        assert field.problems()
        assert isinstance(field.doubled_critical(), dict)
        field.closed_path()
        assert is_radial(field.complex) is False
    for L in fields:
        if isinstance(L, LineField):
            with pytest.raises(NotInImageError):
                dlf_to_dvf(L)
