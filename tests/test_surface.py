"""Construction, validation, duality, and walk surgery on surface complexes."""

import itertools
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import model
import support
import test_radial
import test_simplify
from support import corners, disjoint_union, hasse_diagram, subdivide_edge, suffixed, w
from linefields import (
    LineField,
    VectorField,
    cancel_vertex_face,
    dlf_to_dvf,
    dvf_to_dlf,
    emit_complex,
    homotopy_core,
    merge_critical_faces,
    parse_document,
    parse_off,
)
from linefields.errors import DegenerateOperationError, InvalidComplexError, OperationError
from linefields.radial import radial_decomposition
from linefields.surface import (
    SurfaceComplex,
    _canonical_rotation,
    _fresh_ids,
    _merge_cells,
    _rotated,
    _split_cells,
    delete_edge_merge_faces,
    fresh_id,
    split_face,
)


# ---- construction --------------------------------------------------------


def test_unknown_vertex_rejected():
    with pytest.raises(InvalidComplexError, match="^edge e references unknown vertex$"):
        SurfaceComplex(vertices=frozenset({"v"}), edges={"e": ("v", "x")}, faces={})


def test_unknown_edge_rejected():
    with pytest.raises(InvalidComplexError, match="^face F references unknown edge e$"):
        SurfaceComplex(vertices=frozenset({"v"}), edges={}, faces={"F": w("+e")})


def test_bad_sign_rejected():
    with pytest.raises(InvalidComplexError, match="^face F has occurrence with sign 2$"):
        SurfaceComplex(
            vertices=frozenset({"v"}), edges={"e": ("v", "v")}, faces={"F": ((2, "e"),)}
        )


def test_identifier_collision_rejected():
    with pytest.raises(InvalidComplexError, match="^identifier 'x' used for more than one cell$"):
        SurfaceComplex(vertices=frozenset({"x"}), edges={"x": ("x", "x")}, faces={})


@pytest.mark.parametrize(
    "vertices, edges, faces, message",
    [
        # an edge and a face share an id
        ({"v"}, {"x": ("v", "v")}, {"x": w("+x")}, "identifier 'x' used for more than one cell"),
        # a vertex and a face share an id
        ({"x"}, {"e": ("x", "x")}, {"x": w("+e")}, "identifier 'x' used for more than one cell"),
        # an unknown edge with a bad sign: the edge is reported
        ({"v"}, {"e": ("v", "v")}, {"F": ((1, "e"), (2, "z"))}, "face F references unknown edge z"),
        # a face with no occurrence, refused as the parser refuses its line
        (set(), {}, {"f": ()}, "face f has an empty walk"),
    ],
)
def test_constructor_refusal_messages(vertices, edges, faces, message):
    with pytest.raises(InvalidComplexError, match=f"^{re.escape(message)}$"):
        SurfaceComplex(vertices=frozenset(vertices), edges=edges, faces=faces)


def test_list_cells_stored_as_tuples():
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ["v", "v"], "b": ["v", "v"]},
        faces={"F": [[-1, "a"], [-1, "b"], [1, "a"], [1, "b"]]},
    )
    assert S.edges == {"a": ("v", "v"), "b": ("v", "v")}
    assert S.faces["F"] == w("+a +b -a -b")
    assert type(S.faces["F"]) is tuple
    assert {type(x) for x in (*S.edges.values(), *S.faces["F"])} == {tuple}


def test_walks_canonically_rotated():
    """Any rotation of a boundary walk constructs the same complex."""
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("-a -b +a +b")},
    )
    assert S.faces["F"] == w("+a +b -a -b")
    assert S == support.torus_one()


def random_walk(rng, edges, length):
    return tuple((rng.choice((1, -1)), rng.choice(edges)) for _ in range(length))


def test_least_rotation_matches_full_comparison():
    rng = random.Random(841)
    walks = [w("+a"), w("-a"), w("+a +a"), w("-b +a"), w("+a -b +a -b")]
    for _ in range(400):
        # Two edges and a few repeats make ties, and so Booth's slow path,
        # common.
        block = random_walk(rng, "ab", rng.randrange(1, 5))
        walks.append(block * rng.randrange(1, 4))
        walks.append(random_walk(rng, "abc", rng.randrange(1, 13)))
    loops = {e: ("v", "v") for e in "abc"}
    for walk in walks:
        assert _canonical_rotation(walk) == model.rotation(walk)
        # The constructor builds the rotation keys in its own pass.
        S = SurfaceComplex(frozenset({"v"}), loops, {"F": walk})
        assert S.faces["F"] == model.rotation(walk)
    # An empty walk never reaches the rotation: the constructor refuses it.
    with pytest.raises(InvalidComplexError, match="^face F has an empty walk$"):
        SurfaceComplex(frozenset({"v"}), loops, {"F": ()})


def test_canonical_rotation_matches_rotation_by_texts():
    """_canonical_rotation picks the least occurrence without building its
    text; it must rotate as _rotated does over the texts themselves, for
    tuples and lists alike, including on the ties that reach Booth's scan."""
    rng = random.Random(847)
    ids = ["a", "a_2", "a_10", "ab", "b", "b_2", "r_F_0", "r_F_1"]  # a is a prefix of a_2 and ab
    walks = [w("-a"), w("-ab -a_2 -a"), w("+a_2 -a +ab"), w("+a -a +a -a")]
    for _ in range(600):
        length = rng.randrange(1, 9)
        walks.append(random_walk(rng, ids[: rng.randrange(2, len(ids) + 1)], length))
        walks.append(tuple((-1, e) for _s, e in random_walk(rng, ids, length)))
        walks.append(random_walk(rng, ids[:3], rng.randrange(1, 4)) * rng.randrange(2, 4))
    booth = negative = 0
    for walk in walks:
        texts = [model.text(o) for o in walk]
        booth += texts.count(min(texts)) > 1
        negative += all(s < 0 for s, _e in walk)
        want = _rotated(list(walk), texts)
        for given in (walk, list(walk)):
            got = _canonical_rotation(given)
            assert got == want and type(got) is tuple
    assert booth >= 400 and negative >= 500


def test_from_checked_builds_what_the_constructor_builds(monkeypatch):
    """_from_checked skips the constructor's checks and its rotation, so every
    call the package makes must hand it cells that the checking constructor
    accepts and builds into the same complex: the same walks, each at the
    same rotation, in the same order, and the same name.  Its vertices must
    be a frozenset, as the constructor makes them (a complex is not hashable,
    as its edges and faces are dicts, but its vertex set is).  The calls are the
    parser's, on the golden inputs and on each corpus complex's text, the OFF
    importer's, on the golden icosahedron and an open mesh, both bridge
    directions', radial_decomposition and dual() (where it dualizes) on each
    corpus complex, split_face and delete_edge_merge_faces on every
    face and edge of each corpus complex (and in building the corpus), and
    the simplify rebuilds: homotopy_core, merge_critical_faces and
    cancel_vertex_face on the corpus and forest-field grids of
    test_simplify.differential_fields."""
    from_checked = SurfaceComplex._from_checked
    names = []

    def both(cls, vertices, edges, faces, name):
        S = from_checked(vertices, edges, faces, name)
        try:
            T = SurfaceComplex(vertices, edges, faces, name=name)
        except InvalidComplexError as exc:
            pytest.fail(f"{name}: the constructor refuses the cells: {exc}")
        assert S == T and S.name == T.name, name
        assert list(S.faces.items()) == list(T.faces.items()), name
        assert list(S.edges.items()) == list(T.edges.items()), name
        assert type(S.vertices) is frozenset and hash(S.vertices) == hash(T.vertices), name
        names.append(name)
        return S

    monkeypatch.setattr(SurfaceComplex, "_from_checked", classmethod(both))
    # The corpus grows by split_face, so building it is checked too.
    corpus = test_radial.differential_corpus()
    del names[:]
    golden = sorted((Path(__file__).parent / "golden" / "fields").glob("*.txt"))
    for path in golden:
        parse_document(path.read_text())
    parse_off((Path(__file__).parent / "golden" / "icosahedron.off").read_text())
    parse_off(support.OPEN_OFF)
    rng = random.Random(825)
    surgeries = duals = 0
    for S in corpus:
        assert parse_document(emit_complex(S)).complex == S
        assert parse_document(walks_from_second_occurrence(emit_complex(S))).complex == S
        V = VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
        dlf_to_dvf(dvf_to_dlf(V))
        radial_decomposition(S)
        try:
            S.dual()
        except InvalidComplexError:
            pass
        else:
            duals += 1
        taken = {c for c, _d in support.cells(S)}
        for f, walk in S.faces.items():
            if len(walk) >= 2:
                split_face(S, f, 0, len(walk) // 2, *_fresh_ids(taken, (), (), "d", "a", "b"))
                surgeries += 1
        for e in S.edges:
            try:
                delete_edge_merge_faces(S, e, fresh_id("m", taken))
            except DegenerateOperationError:
                continue
            surgeries += 1
    # One parse per file; per corpus complex two parses, the image, the
    # merged complex, the two factors and the refinement; one per dual and
    # per surgery that returns.
    assert len(golden) == 5 and surgeries >= 250 and duals >= 45
    assert len(names) == len(golden) + 2 + 7 * len(corpus) + duals + surgeries
    # One build per core, and one per merge that returns: the merge builds
    # after its last refusal and does not validate the result.  On
    # the square sphere, contracting a leaves F's walk +z +c +b, whose
    # canonical start is +b.
    square = SurfaceComplex(
        frozenset("pqrs"),
        {"a": ("p", "q"), "z": ("q", "r"), "c": ("r", "s"), "b": ("s", "p")},
        {"F": w("+a +z +c +b"), "G": w("-b -c -z -a")},
    )
    fields = [LineField(square, frozenset({("p", "a")}))] + test_simplify.differential_fields()
    del names[:]
    builds = cancels = 0
    for L in fields:
        homotopy_core(L)
        faces = [f for f in sorted(L.doubled_critical()) if f in L.complex.faces][:6]
        for f, g in itertools.permutations(faces, 2):
            try:
                merge_critical_faces(L, f, g)
            except OperationError:
                pass
            else:
                builds += 1
        # One build per cancellation, as each refusal comes before it.
        crit = L.doubled_critical()
        negative = [f for f in sorted(crit) if f in L.complex.faces and crit[f] < 0][:6]
        for f, v in itertools.product(negative, [v for v in crit if v in L.complex.vertices]):
            try:
                cancel_vertex_face(L, v, f)
            except OperationError:
                continue
            cancels += 1
    assert builds >= 400 and cancels >= 300
    assert len(names) == len(fields) + builds + cancels


def walks_from_second_occurrence(text):
    """`text` with each walk of two or more occurrences written from its
    second one, so that the parser has to rotate the walks back."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "face" and len(tokens) > 4:
            tokens[3:] = tokens[4:] + tokens[3:4]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def test_occurrence_endpoints():
    S = support.tetra()
    assert S.occ_source((1, "e12")) == "v1"
    assert support.occ_target(S, (1, "e12")) == "v2"
    assert S.occ_source((-1, "e12")) == "v2"
    assert support.occ_target(S, (-1, "e12")) == "v1"
    assert support.is_loop(S, "e12") is False
    assert support.is_loop(support.torus_one(), "a") is True


# ---- validation ----------------------------------------------------------


def test_validate_computes_one_verdict_per_complex(monkeypatch):
    """validate(), problems(), dual() and dvf_to_dlf read one verdict per
    complex, computed on the first read.  Each validate() call returns a
    fresh list, so a caller that extends or clears it changes no later
    result."""
    verdicts = test_radial.record_verdicts(monkeypatch)
    S = support.tetra()
    V = VectorField(S, frozenset({("v1", "e12")}))
    problems = S.validate()
    problems += ["a caller's own problem"]
    assert S.validate() == [] and S.validate() is not S.validate()
    assert V.problems() == [] and LineField(S, frozenset()).problems() == []
    S.dual()
    dvf_to_dlf(V)
    assert len(verdicts) == 1 and verdicts[0] is S
    T = support.tetra_without_face()
    want = T.validate()
    assert want
    T.validate().clear()
    for read in (T.validate, VectorField(T, frozenset()).problems):
        assert read() == want
    with pytest.raises(InvalidComplexError, match="^cannot dualize: "):
        T.dual()
    with pytest.raises(InvalidComplexError):
        dvf_to_dlf(VectorField(T, frozenset()))
    assert len(verdicts) == 2 and verdicts[1] is T


def test_named_complexes_are_valid():
    for build in support.all_seed_builders():
        S = build()
        assert S.validate() == [], f"{S.name}: {S.validate()}"


def test_validate_reports_occurrence_count():
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("+a -a")},
    )
    msgs = S.validate()
    assert any("b" in m and "0" in m for m in msgs)


def test_validate_reports_broken_chain():
    S = SurfaceComplex(
        vertices=frozenset({"u", "x"}),
        edges={"e": ("u", "x"), "g": ("u", "x")},
        faces={"F": w("+e +g"), "G": w("-e -g")},
    )
    msgs = S.validate()
    assert any("F" in m for m in msgs)


def test_validate_reports_disconnection():
    S = disjoint_union(support.torus_one(), suffixed(support.proj_plane(), "_p"))
    msgs = S.validate()
    assert any("disconnected" in m for m in msgs)


def test_validate_agrees_with_independent_check():
    """validate() passes exactly when the separately written test passes."""
    rng = random.Random(20260822)
    corpus = support.random_corpus(seed=1, count=40)
    # A lone vertex and the empty complex: no face, so neither is a surface.
    variants = [SurfaceComplex(frozenset({"v"}), {}, {}), SurfaceComplex(frozenset(), {}, {})]
    for S in corpus:
        variants.append(S)
        f = rng.choice(sorted(S.faces))
        variants.append(
            SurfaceComplex(
                vertices=S.vertices,
                edges=S.edges,
                faces={g: walk for g, walk in S.faces.items() if g != f},
            )
        )
        stray = (rng.choice(sorted(S.vertices)), rng.choice(sorted(S.vertices)))
        variants.append(
            SurfaceComplex(
                vertices=S.vertices, edges={**S.edges, "stray": stray}, faces=S.faces
            )
        )
        fl = rng.choice(sorted(S.faces))
        i = rng.randrange(len(S.faces[fl]))
        flipped = list(S.faces[fl])
        flipped[i] = (-flipped[i][0], flipped[i][1])
        variants.append(
            SurfaceComplex(
                vertices=S.vertices,
                edges=S.edges,
                faces={**S.faces, fl: tuple(flipped)},
            )
        )
        variants.append(disjoint_union(S, suffixed(support.slit_sphere(), "_z")))
    for T in variants:
        assert (T.validate() == []) == support.is_closed_surface(T), T.faces


def _mutated(S, rng, n_moves):
    """The cells of S after n_moves random moves that break the
    closed-surface conditions: drop a face, empty a walk, drop an
    occurrence, add an isolated vertex, add an edge between new vertices,
    add a face of random occurrences."""
    vertices, edges, faces = set(S.vertices), dict(S.edges), dict(S.faces)
    for k in range(n_moves):
        move = rng.randrange(6)
        if move < 3 and faces:
            f = rng.choice(sorted(faces))
            if move == 0:
                del faces[f]
            elif move == 1:
                faces[f] = ()
            elif faces[f]:
                i = rng.randrange(len(faces[f]))
                faces[f] = faces[f][:i] + faces[f][i + 1 :]
        elif move == 3:
            vertices.add(f"iso{k}")
        elif move == 4:
            vertices |= {f"t{k}", f"h{k}"}
            edges[f"new{k}"] = (f"t{k}", f"h{k}")
        elif edges:
            faces[f"rand{k}"] = tuple(
                (rng.choice((1, -1)), rng.choice(sorted(edges))) for _ in range(rng.randint(1, 4))
            )
    return frozenset(vertices), edges, faces


def test_validate_matches_incidence_graph_reference():
    """validate() gives the model's exact problem list, its components
    counted on the incidence graph of all cells, on mutated corpus
    complexes, single and in disjoint unions; a mutant with an empty walk
    is refused at construction."""
    rng = random.Random(20261018)
    corpus = support.random_corpus(seed=18, count=60)
    many_parts = broken = empty = 0
    for i, S in enumerate(corpus):
        other = corpus[(i * 7 + 3) % len(corpus)]
        for base in (S, disjoint_union(S, suffixed(other, "_u"))):
            for n_moves in (1, 2, 3, 5, 8):
                vertices, edges, faces = _mutated(base, rng, n_moves)
                hollow = [f for f, walk in faces.items() if not walk]
                if hollow:
                    message = f"^face {re.escape(hollow[0])} has an empty walk$"
                    with pytest.raises(InvalidComplexError, match=message):
                        SurfaceComplex(vertices, edges, faces, name=base.name)
                    empty += 1
                    continue
                T = SurfaceComplex(vertices, edges, faces, name=base.name)
                expected = model.validate(model.complex_of(T))
                assert T.validate() == expected, (T.edges, T.faces)
                parts = re.search(r"\((\d+) components\)$", expected[-1]) if expected else None
                many_parts += parts is not None and int(parts.group(1)) >= 3
                broken += any(" breaks between " in m for m in expected)
    assert many_parts >= 100 and broken >= 100 and empty >= 20, (many_parts, broken, empty)


def test_broken_face_alone_joins_two_surfaces():
    """A face whose walk breaks between two disjoint spheres is the only
    thing joining them: its breaks are reported, and no disconnection."""
    A, B = support.slit_sphere(), suffixed(support.slit_sphere(), "_z")
    S = disjoint_union(A, B)
    assert S.validate() == ["incidence structure is disconnected (2 components)"]
    joined = SurfaceComplex(S.vertices, S.edges, {**S.faces, "joint": w("+e +e_z")})
    assert joined.validate() == [
        "edge e occurs 3 time(s) in boundary walks, expected 2",
        "edge e_z occurs 3 time(s) in boundary walks, expected 2",
        "face joint breaks between positions 0 and 1: w != u_z",
        "face joint breaks between positions 1 and 0: w_z != u",
    ]


# ---- counting ------------------------------------------------------------


def test_euler_characteristic_values():
    assert support.tetra().euler_characteristic() == 2
    assert support.torus_one().euler_characteristic() == 0
    assert support.disk_sphere().euler_characteristic() == 2
    assert support.proj_plane().euler_characteristic() == 1
    assert support.klein().euler_characteristic() == 0
    assert support.slit_sphere().euler_characteristic() == 2
    assert support.theta_sphere().euler_characteristic() == 2
    assert support.grid_torus(2, 2).euler_characteristic() == 0
    assert support.grid_torus(3, 1).euler_characteristic() == 0
    big = support.grid_torus(12, 12)
    assert len(big.vertices) == 144
    assert big.validate() == []
    assert big.euler_characteristic() == 0


def test_corner_count_is_twice_edges():
    for S in support.random_corpus(seed=2, count=25):
        assert len(corners(S)) == 2 * len(S.edges)


def test_corner_vertices_on_tetra():
    S = support.tetra()
    at = {(f, i): v for v, f, i in corners(S)}
    assert at[("f123", 0)] == "v1"
    assert at[("f123", 1)] == "v2"
    assert at[("f123", 2)] == "v3"
    assert S.corner_vertex("f123", 5) == "v3"


def test_hasse_multiplicities():
    H = hasse_diagram(support.tetra())
    assert H.level_total(0) == 12
    assert H.level_total(1) == 12
    assert H.multiplicity("v1", "e12") == 1
    assert H.multiplicity("e12", "f123") == 1
    assert H.multiplicity("v1", "e23") == 0
    loopy = hasse_diagram(support.disk_sphere())
    assert loopy.multiplicity("v", "e") == 2
    doubled = hasse_diagram(support.proj_plane())
    assert doubled.multiplicity("a", "F") == 2


def test_hasse_totals_on_corpus():
    for S in support.random_corpus(seed=3, count=25):
        H = hasse_diagram(S)
        assert H.level_total(0) == 2 * len(S.edges)
        assert H.level_total(1) == 2 * len(S.edges)


# ---- vertex links and duality --------------------------------------------


def test_links_single_cycle_on_named_complexes():
    for build in support.all_seed_builders():
        S = build()
        cycles = S.vertex_link_cycles()
        for v in S.vertices:
            assert len(cycles[v]) == 1, f"{S.name} vertex {v}"


def test_link_cycle_lengths():
    cycles = support.tetra().vertex_link_cycles()
    assert all(len(cs[0]) == 3 for cs in cycles.values())
    assert len(support.torus_one().vertex_link_cycles()["v"][0]) == 4
    assert len(support.disk_sphere().vertex_link_cycles()["v"][0]) == 2


def test_pinched_complex_passes_validate_but_has_no_dual():
    S = support.pinched_spheres()
    assert S.validate() == []
    assert len(S.vertex_link_cycles()["v"]) == 2
    with pytest.raises(
        InvalidComplexError, match="^cannot dualize: link of vertex v has 2 cycles$"
    ):
        S.dual()
    # Two bigon spheres sharing both their vertices: the least is named.
    T = SurfaceComplex(
        vertices=frozenset({"p", "q"}),
        edges={e: ("p", "q") for e in ("a1", "b1", "a2", "b2")},
        faces={
            "n1": w("+a1 -b1"),
            "s1": w("+b1 -a1"),
            "n2": w("+a2 -b2"),
            "s2": w("+b2 -a2"),
        },
    )
    assert T.validate() == []
    assert [len(T.vertex_link_cycles()[v]) for v in "pq"] == [2, 2]
    with pytest.raises(
        InvalidComplexError, match="^cannot dualize: link of vertex p has 2 cycles$"
    ):
        T.dual()


def test_link_cycles_need_every_edge_twice():
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("+a +b +b")},
    )
    with pytest.raises(InvalidComplexError, match="edge a occurs 1 time"):
        S.vertex_link_cycles()


# ---- link cycles against the model's corner walk ---------------------------


def test_link_cycles_match_reference_walk():
    inputs = [build() for build in support.all_seed_builders()]
    inputs += support.random_corpus(seed=23, count=40)
    for rows, cols in ((1, 1), (1, 3), (2, 5), (3, 3), (4, 7), (10, 10)):
        inputs += [support.grid_torus(rows, cols), support.grid_klein(rows, cols)]
    inputs.append(support.pinched_spheres())
    inputs += [radial_decomposition(S).complex for S in inputs]
    steps = 0
    for S in inputs:
        got = S.vertex_link_cycles()
        want = model.link_cycles(model.complex_of(S))
        assert set(got) == set(want) == S.vertices, S.name
        for v in sorted(S.vertices):
            assert got[v] == want[v], (S.name, v)
            steps += sum(map(len, got[v]))
    assert len(inputs) == 122 and steps >= 5000


def test_dual_matches_model():
    """dual() against the model's walk of each vertex's link cycle, and the
    same refusals: an unsound complex and a pinched vertex."""
    inputs = support.random_corpus(seed=29, count=60)
    inputs += [support.pillow(n) for n in (1, 2, 7)]
    inputs += [support.cone_sphere(n) for n in (1, 3, 8)]
    inputs += [support.one_face(g) for g in (1, 2, 4)]
    inputs += [support.pinched_spheres(), support.tetra_without_face()]
    kinds = Counter()
    for S in inputs:
        got = model.outcome(lambda: model.complex_of(S.dual()), InvalidComplexError)
        assert got == model.outcome(lambda: model.dual(model.complex_of(S))), S.name
        kinds[got[0]] += 1
    assert kinds["ok"] >= 60 and kinds["InvalidComplexError"] >= 2


def test_dual_of_invalid_complex_rejected():
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F": w("+a -a")},
    )
    with pytest.raises(InvalidComplexError):
        S.dual()


def test_dual_disk_sphere_is_slit_sphere():
    D = support.disk_sphere().dual()
    assert D.vertices == frozenset({"n", "s"})
    assert D.edges == {"e": ("n", "s")}
    assert D.faces == {"v": w("+e -e")}


def test_dual_slit_sphere_is_disk_sphere():
    D = support.slit_sphere().dual()
    assert D.vertices == frozenset({"F"})
    assert D.edges == {"e": ("F", "F")}
    assert D.faces == {"u": w("+e"), "w": w("-e")}


def test_dual_torus_is_torus():
    D = support.torus_one().dual()
    assert D.vertices == frozenset({"F"})
    assert D.edges == {"a": ("F", "F"), "b": ("F", "F")}
    assert D.faces == {"v": w("+a +b -a -b")}


def test_dual_proj_plane():
    D = support.proj_plane().dual()
    assert D.faces == {"v": w("-a -a")}


def test_dual_theta_is_double_triangle():
    D = support.theta_sphere().dual()
    assert D.faces == {"u": w("+b +c -a"), "w": w("+b +c -a")}
    assert D.edges == {
        "a": ("fab", "fca"),
        "b": ("fab", "fbc"),
        "c": ("fbc", "fca"),
    }


def test_dual_tetra_is_tetrahedral():
    """The triangle-pyramid complex is self-dual up to relabeling."""
    S = support.tetra()
    D = S.dual()
    assert D.validate() == []
    assert D.vertices == frozenset(S.faces)
    assert all(len(walk) == 3 for walk in D.faces.values())
    pairs = {frozenset(D.edges[e]) for e in D.edges}
    assert len(pairs) == 6 and all(len(p) == 2 for p in pairs)


def test_double_dual_round_trips_identifiers():
    for build in support.all_seed_builders():
        S = build()
        DD = S.dual().dual()
        assert DD.vertices == S.vertices
        assert set(DD.edges) == set(S.edges)
        assert set(DD.faces) == set(S.faces)
        for e in S.edges:
            assert set(DD.edges[e]) == set(S.edges[e]), f"{S.name} edge {e}"


def test_dual_preserves_euler_characteristic_on_corpus():
    for S in support.random_corpus(seed=4, count=25):
        D = S.dual()
        assert D.validate() == []
        assert D.euler_characteristic() == S.euler_characteristic()
        assert len(corners(D)) == len(corners(S))


# ---- walk surgery --------------------------------------------------------


def test_split_face_tetra():
    S = support.tetra()
    T = split_face(S, "f134", 2, 0, "d", "fa", "fb")
    assert T.validate() == []
    assert T.euler_characteristic() == 2
    assert T.edges["d"] == ("v4", "v1")
    assert support.is_rotation(T.faces["fa"], w("-e14 -d"))
    assert support.is_rotation(T.faces["fb"], w("+e13 +e34 +d"))


def test_split_then_merge_round_trips():
    S = support.tetra()
    T = split_face(S, "f134", 2, 0, "d", "fa", "fb")
    back = delete_edge_merge_faces(T, "d", "f134")
    assert back == S


def test_delete_edge_merges_walks():
    S = support.tetra()
    T = delete_edge_merge_faces(S, "e13", "m")
    assert T.validate() == []
    assert T.euler_characteristic() == 2
    assert T.faces["m"] == w("+e12 +e23 +e34 -e14")


def test_delete_same_sign_loop_keeps_one_link_cycle():
    # A projective plane at one vertex: both occurrences of the loop a
    # carry the same sign, so the rest of F2 must be reversed; keeping it
    # forward would give -b +b and pinch the vertex into two link cycles.
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"F1": w("+a +b"), "F2": w("+a -b")},
    )
    assert S.validate() == []
    assert len(S.vertex_link_cycles()["v"]) == 1
    T = delete_edge_merge_faces(S, "a", "m")
    assert T.faces["m"] == w("+b +b")
    assert T.validate() == []
    assert len(T.vertex_link_cycles()["v"]) == 1


def test_delete_edge_refuses_single_face():
    with pytest.raises(DegenerateOperationError):
        delete_edge_merge_faces(support.torus_one(), "a", "m")


def test_delete_edge_refuses_empty_result():
    with pytest.raises(DegenerateOperationError):
        delete_edge_merge_faces(support.disk_sphere(), "e", "m")


@pytest.mark.parametrize(
    "move, message",
    [
        (lambda: split_face(support.tetra(), "f134", 1, 1, "d", "fa", "fb"),
         "cannot split face f134 at positions 1, 1"),
        # a occurs once
        (lambda: delete_edge_merge_faces(SurfaceComplex(
            vertices=frozenset({"v"}), edges={"a": ("v", "v"), "b": ("v", "v")},
            faces={"F": w("+a +b +b")}), "a", "m"),
         "edge a occurs 1 time(s), expected 2"),
    ],
    ids=["split-at-one-corner", "edge-occurs-once"],
)
def test_surgery_refusal_messages(move, message):
    with pytest.raises(DegenerateOperationError, match=f"^{re.escape(message)}$"):
        move()


@pytest.mark.parametrize(
    "move, taken",
    [
        (lambda S: split_face(S, "q00", 0, 2, "dnew", "q11", "bnew"), "q11"),
        (lambda S: split_face(S, "q00", 0, 2, "h00", "anew", "bnew"), "h00"),
        (lambda S: split_face(S, "q00", 0, 2, "v00", "anew", "bnew"), "v00"),
        (lambda S: split_face(S, "q00", 0, 2, "dnew", "half", "half"), "half"),
        (lambda S: delete_edge_merge_faces(S, "h00", "q11"), "q11"),
        (lambda S: delete_edge_merge_faces(S, "h00", "h01"), "h01"),
    ],
    ids=["split-half-names-face", "split-diagonal-names-edge", "split-diagonal-names-vertex",
         "split-halves-share-id", "merge-names-face", "merge-names-edge"],
)
def test_surgery_refuses_taken_identifiers(move, taken):
    """A new id that repeats another new id, or names a cell the result
    keeps, is refused with the constructor's message instead of silently
    replacing that cell."""
    message = f"identifier {taken!r} used for more than one cell"
    with pytest.raises(InvalidComplexError, match=f"^{re.escape(message)}$"):
        move(support.grid_torus(3, 3))


def test_surgery_reuses_the_ids_it_frees():
    """The face being split, and the merged faces and the deleted edge,
    leave the result, so their ids may name a new cell."""
    S = support.grid_torus(3, 3)
    for ids in (("q00", "a", "b"), ("d", "q00", "b"), ("d", "a", "q00")):
        T = split_face(S, "q00", 0, 2, *ids)
        assert T.validate() == [] and set(ids) <= set(T.edges) | set(T.faces)
    for merged_id in ("h00", "q00", "q20"):
        T = delete_edge_merge_faces(S, "h00", merged_id)
        assert T.validate() == [] and merged_id in T.faces and "h00" not in T.edges


def test_surgery_kernels_match_reference():
    """_split_cells and _merge_cells, built with _from_checked, give the
    model's split_face and delete_edge, down to each walk's rotation and
    the order of the cell dicts, on the random corpus, the one-vertex
    complexes with their loops, and a projective plane whose loop occurs
    with the same sign on two faces.  Every corner pair of every face is split, with positions
    also given past the walk's length, and every edge on two faces is
    deleted, its slots handed over in either order."""
    same_sign = SurfaceComplex(frozenset({"v"}), {"a": ("v", "v"), "b": ("v", "v")},
                               {"F1": w("+a +b"), "F2": w("+a -b")})
    cases = support.random_corpus(841, 40) + [b() for b in support.all_seed_builders()]
    seen = Counter()

    def same(T, R):
        assert model.complex_of(T) == R and list(T.edges.items()) == list(R.edges.items())
        assert list(T.faces.items()) == list(R.faces.items())

    for S in cases + [same_sign]:
        C = model.complex_of(S)
        for f, walk in S.faces.items():
            n = len(walk)
            seen["twice on one face, same sign"] += len({o for o in walk if walk.count(o) > 1})
            for p, q in itertools.permutations(range(n), 2):
                ids = _fresh_ids(S.vertices, S.edges, S.faces, "d", "a", "b")
                if (p + q) % 3 == 0:
                    ids[1] = f  # the split face's id is free for a half
                for pq in ((p, q), (p + n, q - n)):
                    edges, faces = dict(S.edges), dict(S.faces)
                    _split_cells(edges, faces, f, *pq, *ids)
                    same(SurfaceComplex._from_checked(S.vertices, edges, faces, S.name),
                         model.split_face(C, f, p, q, *ids))
                seen["split"] += 1
        for e, slots in S.occurrence_index.items():
            if len({f for f, _p in slots}) != 2:
                continue
            (f1, p1), (f2, p2) = slots
            seen["same sign on two faces"] += S.faces[f1][p1][0] == S.faces[f2][p2][0]
            seen["loop"] += support.is_loop(S, e)
            try:
                R = model.delete_edge(C, e, "m")
            except model.Refused as exc:
                for order in (slots, slots[::-1]):
                    with pytest.raises(DegenerateOperationError, match=f"^{re.escape(str(exc))}$"):
                        _merge_cells(dict(S.edges), dict(S.faces), e, order, "m")
                seen["empty"] += 1
                continue
            for order in (slots, slots[::-1]):
                edges, faces = dict(S.edges), dict(S.faces)
                _merge_cells(edges, faces, e, order, "m")
                same(SurfaceComplex._from_checked(S.vertices, edges, faces, S.name), R)
            seen["merge"] += 1
    assert min(seen.values()) >= 1 and seen["split"] >= 500 and seen["merge"] >= 100, seen


def test_dim_of_unknown_cell():
    with pytest.raises(KeyError) as raised:
        support.tetra().dim_of("nope")
    assert str(raised.value) == "'nope'"


def test_subdivide_edge_tetra():
    S = support.tetra()
    T = subdivide_edge(S, "e12", "m", "p", "q")
    assert T.validate() == []
    assert T.euler_characteristic() == 2
    assert T.edges["p"] == ("v1", "m")
    assert T.edges["q"] == ("m", "v2")
    assert support.is_rotation(T.faces["f123"], w("+p +q +e23 -e13"))
    assert support.is_rotation(T.faces["f124"], w("+e14 -e24 -q -p"))


def test_random_moves_preserve_validity():
    """Subdivision and splitting keep complexes valid with the same count."""
    rng = random.Random(5)
    for build in support.all_seed_builders():
        S = build()
        chi = S.euler_characteristic()
        for _ in range(6):
            grown = rng.choice([support.subdivide_move, support.split_move])(S, rng)
            if grown is None:
                continue
            S = grown
            assert S.validate() == []
            assert S.euler_characteristic() == chi


def test_fresh_id():
    assert fresh_id("x", set()) == "x"
    assert fresh_id("x", {"x"}) == "x_2"
    assert fresh_id("x", {"x", "x_2", "x_3"}) == "x_4"
    # _fresh_ids reads the cell containers in place and avoids its own picks.
    vertices, edges, faces = frozenset({"x"}), {"x_2": ("x", "x")}, {"y_2": ()}
    assert _fresh_ids(vertices, edges, faces, "x", "x", "y", "x_3") == ["x_3", "x_4", "y", "x_3_2"]
    assert vertices == {"x"} and list(edges) == ["x_2"] and list(faces) == ["y_2"]
