"""The package's value records against frozen dataclasses.

Every record class subclasses `errors._Record`.  Each is compared here with
a frozen `dataclasses.make_dataclass` twin declared from the class's field
list: the twin holds the same field values, so its repr, equality and hash
are what the record's were when the class was a frozen dataclass.
"""

import dataclasses
import importlib
import pkgutil
import random

import pytest
import support

import linefields
from linefields import (
    CellCorrespondence,
    ClosedCorridor,
    CoreResult,
    Corridor,
    Crossing,
    DecompositionReport,
    Document,
    LineField,
    LPath,
    RadialComplex,
    Separatrix,
    SurfaceComplex,
    TopologicalGraph,
    VectorField,
    XPath,
    homotopy_core,
    ms_decomposition,
    parse_document,
    radial_decomposition,
)
from linefields.dynamics import _Field
from linefields.errors import _Record

MISSING = dataclasses.MISSING


def acyclic(S, seed=1):
    return support.forest_field(S, random.Random(seed), 0.8)


def samples():
    """Each record class: its dataclass fields as (name, default, compare)
    and two or more distinct sample values."""
    tetra, torus = support.tetra(), support.torus_one()
    L, M = acyclic(tetra), acyclic(support.grid_torus(2, 3))
    cross = Crossing("e12", ("f123", 0), ("f124", 2))
    other = Crossing("e13", ("f123", 2), ("f134", 0))
    text = "surface s\nvertex v\nedge a v v\nedge b v v\nface F walk +a +b -a -b\n"
    return {
        SurfaceComplex: (
            [("vertices", MISSING, True), ("edges", MISSING, True), ("faces", MISSING, True),
             ("name", "surface", False)],
            [tetra, torus, support.grid_klein(2, 2)],
        ),
        _Field: (
            [("complex", MISSING, True), ("matching", frozenset(), True)],
            [_Field(tetra), _Field(torus), _Field(tetra, frozenset({("v1", "e12")}))],
        ),
        LineField: (
            [("complex", MISSING, True), ("matching", frozenset(), True)],
            [LineField(tetra), L, LineField(tetra, {("v1", "e12")})],
        ),
        VectorField: (
            [("complex", MISSING, True), ("matching", frozenset(), True)],
            [VectorField(tetra), VectorField(tetra, {("e12", "v1"), ("e23", "f123")})],
        ),
        LPath: (
            [("vertices", MISSING, True), ("edges", MISSING, True)],
            [LPath(("v1", "v2"), ("e12",)), LPath(("v1",), ()), LPath(("v2", "v1"), ("e12",))],
        ),
        XPath: (
            [("dimension", MISSING, True), ("cells", MISSING, True),
             ("witnesses", MISSING, True)],
            [XPath(0, ("v1", "v2"), (("e12", 1),)), XPath(1, ("e12",), ()),
             XPath(0, ("v1", "v2"), (("e12", 0),))],
        ),
        Separatrix: (
            [("source", MISSING, True), ("target", MISSING, True),
             ("occurrence", MISSING, True), ("path", MISSING, True)],
            # Two walked from a graph, one made from a path and one as
            # parse_graph_json makes it, with no path.
            [*ms_decomposition(L).graph.edges[:2],
             Separatrix("f123", "v3", 2, LPath(("v3",), ())), Separatrix("f134", "v4", 2, None)],
        ),
        TopologicalGraph: (
            [("vertices", MISSING, True), ("edges", MISSING, True)],
            [L.graph(), M.graph(), TopologicalGraph(("v1",), ())],
        ),
        Crossing: (
            [("edge", MISSING, True), ("depart", MISSING, True), ("arrive", MISSING, True)],
            [cross, other, Crossing("e12", ("f124", 2), ("f123", 0))],
        ),
        Corridor: (
            [("start", MISSING, True), ("end", MISSING, True), ("crossings", MISSING, True),
             ("interior", MISSING, True)],
            [Corridor("f123", "f124", (cross,), ()), Corridor("f123", "f134", (other,), ()),
             Corridor("f123", "f134", (cross, other), ("f124",))],
        ),
        ClosedCorridor: (
            [("faces", MISSING, True), ("crossings", MISSING, True)],
            [ClosedCorridor(("f124",), (cross,)), ClosedCorridor(("f134",), (other,))],
        ),
        DecompositionReport: (
            [("field", MISSING, True), ("graph", MISSING, True), ("corridors", MISSING, True),
             ("closed_corridors", MISSING, True), ("regions", MISSING, True),
             ("flags", MISSING, True)],
            [ms_decomposition(L), ms_decomposition(M)],
        ),
        Document: (
            [("complex", MISSING, True), ("match", MISSING, True), ("vmatch", MISSING, True)],
            [parse_document(text), parse_document(text + "match v a\n"),
             parse_document(text + "vmatch v a\n")],
        ),
        RadialComplex: (
            [("complex", MISSING, True), ("vertex_origin", MISSING, True),
             ("face_origin", MISSING, True)],
            [radial_decomposition(tetra), radial_decomposition(torus)],
        ),
        CellCorrespondence: (
            [("mapping", MISSING, True)],
            [CellCorrespondence({"a": "b"}), CellCorrespondence({}),
             homotopy_core(L).correspondence],
        ),
        CoreResult: (
            [("field", MISSING, True), ("correspondence", MISSING, True),
             ("degenerate_face", None, True)],
            [homotopy_core(L), homotopy_core(M),
             CoreResult(L, CellCorrespondence({}), "f123")],
        ),
    }


def record_classes():
    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def twin_of(cls, spec):
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, dataclasses.field(default=default, compare=compare))
         for name, default, compare in spec],
        frozen=True,
    )


def values_of(record, spec):
    return [getattr(record, name) for name, _d, _c in spec]


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


SAMPLES = samples()


def test_every_record_class_has_a_twin():
    assert record_classes() == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_behaves_as_its_dataclass_twin(cls):
    spec, records = SAMPLES[cls]
    Twin = twin_of(cls, spec)
    twins = [Twin(*values_of(r, spec)) for r in records]
    assert cls._fields == tuple(name for name, _d, _c in spec)
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        assert hash_or_error(r) == hash_or_error(t)
        assert (r == t, r != t, t == r) == (False, True, False)
        assert (r == object(), r != None) == (False, True)  # noqa: E711
        # Rebuilt positionally and by keyword from its own values, equal.
        values = values_of(r, spec)
        assert cls(*values) == r and cls(**{n: v for (n, _d, _c), v in zip(spec, values)}) == r
    for r, t in zip(records, twins):
        for r2, t2 in zip(records, twins):
            assert (r == r2, r != r2) == (t == t2, t != t2)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_is_frozen_and_checks_its_arguments(cls):
    spec, records = SAMPLES[cls]
    Twin = twin_of(cls, spec)
    r = records[0]
    values = values_of(r, spec)
    t = Twin(*values)
    first = spec[0][0]
    for obj in (r, t):
        for name in (first, "unrelated"):
            with pytest.raises(AttributeError):
                setattr(obj, name, values[0])
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert getattr(r, first) is values[0]
    for make in (cls, Twin):
        with pytest.raises(TypeError):  # missing
            make()
        with pytest.raises(TypeError):  # unknown
            make(*values, unknown=1)
        with pytest.raises(TypeError):  # repeated
            make(*values, **{first: values[0]})
        with pytest.raises(TypeError):  # too many
            make(*values, None)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_defaults(cls):
    spec, records = SAMPLES[cls]
    required = [v for v, (_n, d, _c) in zip(values_of(records[0], spec), spec) if d is MISSING]
    built = cls(*required)
    for name, default, _c in spec:
        if default is not MISSING:
            assert getattr(built, name) == default
            assert getattr(twin_of(cls, spec)(*required), name) == default


def test_hand_written_value_classes_are_records():
    """A package class that defines its own equality or hash is a record,
    so one implementation compares, hashes, prints and freezes them all."""
    hand_written = []
    for info in pkgutil.iter_modules(linefields.__path__):
        module = importlib.import_module(f"linefields.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and {"__eq__", "__hash__"} & vars(cls).keys()
                    and not issubclass(cls, _Record)):
                hand_written.append(cls.__qualname__)
    assert hand_written == []


def test_surface_complexes_differing_in_name_are_equal():
    S = support.tetra()
    T = SurfaceComplex(S.vertices, S.edges, S.faces, name="other")
    assert S == T and not S != T and repr(S) != repr(T)
    assert LineField(S) == LineField(T)
    with pytest.raises(TypeError):
        hash(S)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_dataclasses_functions_apply_to_records(cls):
    """dataclasses.fields, asdict and replace read a record's field table
    as they read its twin's, and replace builds through the constructor."""
    spec, records = SAMPLES[cls]
    r, other = records[0], records[1]
    t = twin_of(cls, spec)(*values_of(r, spec))
    assert dataclasses.is_dataclass(r) and dataclasses.is_dataclass(cls)
    assert [(f.name, f.default, f.compare) for f in dataclasses.fields(r)] == spec
    assert dataclasses.asdict(r) == dataclasses.asdict(t)
    assert repr(dataclasses.replace(r)) == repr(r)
    for name, _d, _c in spec:
        given = {**{n: getattr(r, n) for n, _d, _c in spec}, name: getattr(other, name)}
        try:
            expected = repr(cls(**given))
        except Exception as exc:  # e.g. a matching that names cells of another complex
            with pytest.raises(type(exc)):
                dataclasses.replace(r, **{name: getattr(other, name)})
        else:
            assert repr(dataclasses.replace(r, **{name: getattr(other, name)})) == expected


def test_replace_as_the_benchmark_self_test_uses_it():
    S = support.tetra()
    f = min(S.faces)
    (sign, e), *rest = S.faces[f]
    flipped = dataclasses.replace(S, faces={**S.faces, f: ((-sign, e), *rest)})
    assert flipped.name == S.name and flipped != S
    assert flipped == SurfaceComplex(S.vertices, S.edges, flipped.faces)
    graph = ms_decomposition(acyclic(S)).graph
    assert dataclasses.replace(graph, edges=graph.edges[1:]).edges == graph.edges[1:]
