import random

import pytest

import support
from support import collapse_noncritical_face, contract_matched_pair, subdivide_edge
from linefields import (
    CancellationError,
    CellCorrespondence,
    CoreResult,
    DegenerateOperationError,
    LineField,
    OperationError,
    SurfaceComplex,
    cancel_vertex_face,
    corridors_from,
    critical_cells,
    delete_edge_merge_faces,
    emit_line_field,
    fresh_id,
    homotopy_core,
    merge_critical_faces,
    split_face,
    topological_graph,
    validate_line_field,
)


def two_pair_tetra():
    return LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")}))


def graph_multiplicities(graph):
    counts = {}
    for sep in graph.edges:
        counts[(sep.source, sep.target)] = counts.get((sep.source, sep.target), 0) + 1
    return counts


# ---- contraction ---------------------------------------------------------


def test_contract_merges_vertex_into_partner():
    out, corr = contract_matched_pair(two_pair_tetra(), "v1", "e12")
    S = out.complex
    assert S.vertices == frozenset({"v2", "v3", "v4"})
    assert sorted(S.edges) == ["e13", "e14", "e23", "e24", "e34"]
    assert S.edges["e13"] == ("v2", "v3")
    assert S.edges["e14"] == ("v2", "v4")
    assert len(S.faces) == 4
    assert support.is_rotation(S.faces["f123"], support.w("+e23 -e13"))
    assert out.matching == frozenset({("v2", "e23")})
    assert corr.image_of("v1") == "v2"
    assert corr.image_of("e12") == "v2"
    assert corr.image_of("f123") == "f123"
    assert corr.preimages("v2") == ("e12", "v1", "v2")


def test_contract_chain_reaches_empty_matching():
    mid, _ = contract_matched_pair(two_pair_tetra(), "v1", "e12")
    out, _ = contract_matched_pair(mid, "v2", "e23")
    S = out.complex
    assert len(S.vertices) == 2 and len(S.edges) == 4 and len(S.faces) == 4
    assert out.matching == frozenset()
    assert S.euler_characteristic() == 2


def test_contract_preserves_invariants():
    L = two_pair_tetra()
    out, corr = contract_matched_pair(L, "v2", "e23")
    assert out.complex.validate() == []
    assert validate_line_field(out) == []
    assert out.complex.euler_characteristic() == L.complex.euler_characteristic()
    assert sum(out.doubled_critical().values()) == sum(L.doubled_critical().values())
    before = critical_cells(L)
    after = critical_cells(out)
    assert {corr.image_of(c): i for c, i in before.items()} == after


def test_contract_rejects_unmatched_pair():
    with pytest.raises(OperationError, match="not a matched pair"):
        contract_matched_pair(two_pair_tetra(), "v3", "e34")


def test_contract_rejects_matched_loop():
    L = LineField(support.torus_one(), frozenset({("v", "a")}))
    with pytest.raises(OperationError, match="loop"):
        contract_matched_pair(L, "v", "a")


def test_contract_rejects_vanishing_face():
    L = LineField(support.slit_sphere(), frozenset({("u", "e")}))
    with pytest.raises(DegenerateOperationError, match="empty boundary"):
        contract_matched_pair(L, "u", "e")


# ---- face collapse -------------------------------------------------------


def collapsed_tetra_state():
    mid, _ = contract_matched_pair(two_pair_tetra(), "v1", "e12")
    out, _ = contract_matched_pair(mid, "v2", "e23")
    return out


def test_collapse_removes_face_and_edge():
    L = collapsed_tetra_state()
    out, corr = collapse_noncritical_face(L, "f124")
    S = out.complex
    assert "f124" not in S.faces and "e14" not in S.edges
    assert support.is_rotation(S.faces["f134"], support.w("+e13 +e34 -e24"))
    assert corr.image_of("f124") == "f134"
    assert corr.image_of("e14") == "f134"
    assert S.validate() == []
    assert sum(out.doubled_critical().values()) == sum(L.doubled_critical().values())


def test_collapse_requires_empty_matching():
    with pytest.raises(OperationError, match="matched pairs remain"):
        collapse_noncritical_face(two_pair_tetra(), "f124")


def test_collapse_rejects_critical_face():
    L = collapsed_tetra_state()
    with pytest.raises(OperationError, match="critical"):
        collapse_noncritical_face(L, "f134")


def test_collapse_rejects_repeated_edge():
    L = LineField(support.slit_sphere())
    with pytest.raises(DegenerateOperationError, match="repeats e twice"):
        collapse_noncritical_face(L, "F")


# ---- homotopy core -------------------------------------------------------


def test_core_of_two_pair_field():
    L = two_pair_tetra()
    core = homotopy_core(L)
    assert core.degenerate_face is None
    S = core.field.complex
    assert S.vertices == frozenset({"v3", "v4"})
    assert sorted(S.edges) == ["e13", "e34"]
    assert S.edges["e13"] == ("v3", "v3")
    assert sorted(S.faces) == ["f123", "f134"]
    assert support.is_rotation(S.faces["f123"], support.w("-e13"))
    assert support.is_rotation(S.faces["f134"], support.w("+e13 +e34 -e34"))
    assert core.field.matching == frozenset()
    assert critical_cells(core.field) == {"v3": 2, "v4": 2, "f123": 1, "f134": -1}
    assert core.correspondence.mapping == {
        "v1": "v3",
        "v2": "v3",
        "v3": "v3",
        "v4": "v4",
        "e12": "v3",
        "e23": "v3",
        "e13": "e13",
        "e14": "f134",
        "e24": "f134",
        "e34": "e34",
        "f123": "f123",
        "f124": "f134",
        "f134": "f134",
        "f234": "f134",
    }


def test_core_preserves_topological_graph():
    L = two_pair_tetra()
    core = homotopy_core(L)
    corr = core.correspondence
    original = graph_multiplicities(topological_graph(L))
    simplified = graph_multiplicities(topological_graph(core.field))
    assert {
        (corr.image_of(f), corr.image_of(v)): n for (f, v), n in original.items()
    } == simplified


def test_core_fixed_points():
    for builder in (support.tetra, support.torus_one, support.disk_sphere):
        L = LineField(builder())
        core = homotopy_core(L)
        assert core.degenerate_face is None
        assert core.field == L
        assert core.correspondence.mapping == {c: c for c, _d in L.complex.cells()}


def test_core_flags_degenerate_bigon():
    core = homotopy_core(LineField(support.proj_plane()))
    assert core.degenerate_face == "F"
    assert core.field == LineField(support.proj_plane())
    core = homotopy_core(LineField(support.slit_sphere()))
    assert core.degenerate_face == "F"


def test_core_flags_degenerate_contraction():
    L = LineField(support.slit_sphere(), frozenset({("u", "e")}))
    core = homotopy_core(L)
    assert core.degenerate_face == "F"
    assert core.field == L


def test_core_requires_acyclic_field():
    from linefields import CyclicFieldError

    with pytest.raises(CyclicFieldError):
        homotopy_core(LineField(support.torus_one(), frozenset({("v", "a")})))


def test_core_is_idempotent_and_sound_on_random_fields():
    rng = random.Random(801)
    for S in support.random_corpus(802, 10, max_moves=3):
        L = LineField(S, support.sample_matching(support.line_field_pairs(S), rng))
        if L.closed_path() is not None:
            continue
        core = homotopy_core(L)
        out = core.field
        assert out.complex.validate() == []
        assert validate_line_field(out) == []
        assert out.complex.euler_characteristic() == S.euler_characteristic()
        assert sum(out.doubled_critical().values()) == sum(L.doubled_critical().values())
        corr = core.correspondence
        cells_after = dict(out.complex.cells())
        for cell, _d in S.cells():
            assert corr.image_of(cell) in cells_after
        before = critical_cells(L)
        after = critical_cells(out)
        assert {corr.image_of(c): i for c, i in before.items()} == after
        if core.degenerate_face is None:
            assert out.matching == frozenset()
            assert all(len(w) != 2 for w in out.complex.faces.values())
            again = homotopy_core(out)
            assert again.field == out
        else:
            walk = out.complex.faces[core.degenerate_face]
            assert len({eid for _s, eid in walk}) == 1


# ---- merging critical faces ----------------------------------------------


def test_merge_deletes_corridor_edge():
    L = two_pair_tetra()
    out, corr = merge_critical_faces(L, "f123", "f134")
    S = out.complex
    assert "m_f123_f134" in S.faces
    assert support.is_rotation(
        S.faces["m_f123_f134"], support.w("+e12 +e23 +e34 -e14")
    )
    assert "e13" not in S.edges
    assert out.matching == L.matching
    assert len(out._unmatched["m_f123_f134"]) == 2
    assert critical_cells(out) == {"v3": 2, "v4": 2}
    assert sum(out.doubled_critical().values()) == sum(L.doubled_critical().values())
    assert out.closed_path() is None
    assert S.validate() == []
    assert corr.image_of("f123") == "m_f123_f134"
    assert corr.image_of("f134") == "m_f123_f134"
    assert corr.image_of("e13") == "m_f123_f134"


def test_merge_through_interior_faces():
    L = LineField(support.theta_sphere(), frozenset({("u", "a")}))
    out, corr = merge_critical_faces(L, "fab", "fca")
    S = out.complex
    assert sorted(S.faces) == ["m_fab_fca"]
    assert support.is_rotation(S.faces["m_fab_fca"], support.w("+a -a"))
    assert len(out._unmatched["m_fab_fca"]) == 0
    assert critical_cells(out) == {"w": 2, "m_fab_fca": 2}
    assert sum(out.doubled_critical().values()) == 4
    assert corr.image_of("fbc") == "m_fab_fca"
    assert corr.image_of("b") == corr.image_of("c") == "m_fab_fca"


def test_merge_refuses_empty_walk_at_last_crossing():
    # Two one-sided disks joined through a bigon: deleting a leaves +b,
    # and deleting b then leaves nothing.
    S = SurfaceComplex(
        vertices=frozenset({"v"}),
        edges={"a": ("v", "v"), "b": ("v", "v")},
        faces={"n": support.w("+a"), "mid": support.w("-a +b"), "s": support.w("-b")},
    )
    with pytest.raises(DegenerateOperationError, match="deleting b would leave a face"):
        merge_critical_faces(LineField(S), "n", "s")


def test_merge_rejects_same_face():
    with pytest.raises(OperationError, match="itself"):
        merge_critical_faces(two_pair_tetra(), "f134", "f134")


def test_merge_rejects_non_critical_face():
    with pytest.raises(OperationError, match="not critical"):
        merge_critical_faces(two_pair_tetra(), "f123", "f124")


def test_merge_requires_some_corridor():
    L = LineField(support.grid_torus(2, 2))
    with pytest.raises(CancellationError, match="no corridor from q00 to q11"):
        merge_critical_faces(L, "q00", "q11")


def test_merge_rejects_multiple_corridors():
    L = LineField(support.grid_torus(2, 2))
    with pytest.raises(CancellationError, match="found 2"):
        merge_critical_faces(L, "q00", "q01")
    L = LineField(support.tetra(), frozenset({("v1", "e12")}))
    with pytest.raises(CancellationError, match="found 3"):
        merge_critical_faces(L, "f134", "f234")


def test_merge_invariants_on_random_fields():
    rng = random.Random(811)
    applied = 0
    for S in support.random_corpus(812, 15, max_moves=3):
        L = LineField(
            S, support.sample_matching(support.line_field_pairs(S), rng, keep=0.35)
        )
        if L.closed_path() is not None:
            continue
        crit = critical_cells(L)
        faces = [f for f in sorted(crit) if f in S.faces]
        tried = 0
        for f in faces:
            for g in faces:
                if f == g or tried >= 6:
                    continue
                try:
                    out, corr = merge_critical_faces(L, f, g)
                except (CancellationError, DegenerateOperationError):
                    continue
                tried += 1
                applied += 1
                merged = corr.image_of(f)
                doubled = 2 - len(out._unmatched[merged])
                assert doubled == crit[f] + crit[g]
                assert sum(out.doubled_critical().values()) == sum(L.doubled_critical().values())
                after = critical_cells(out)
                assert after.get(merged, 0) == doubled
                assert len(after) == len(crit) - (1 if doubled != 0 else 2)
                assert out.complex.validate() == []
                assert validate_line_field(out) == []
                assert out.closed_path() is None
    assert applied >= 10


# ---- vertex-face cancellation --------------------------------------------


def test_cancel_with_trivial_witness():
    L = two_pair_tetra()
    out, corr = cancel_vertex_face(L, "v4", "f134")
    S = out.complex
    assert corr.image_of("f134") == "f134_1"
    assert S.edges["d_f134"] == ("v4", "v1")
    assert support.is_rotation(S.faces["f134_1"], support.w("-e14 -d_f134"))
    assert support.is_rotation(S.faces["f134_0"], support.w("+e13 +e34 +d_f134"))
    assert out.matching == frozenset(
        {("v1", "e12"), ("v2", "e23"), ("v4", "d_f134")}
    )
    assert critical_cells(out) == {"v3": 2, "f123": 1, "f134_1": 1}
    assert sum(out.doubled_critical().values()) == 4
    assert out.closed_path() is None
    assert S.validate() == []
    assert validate_line_field(out) == []


def test_cancel_reverses_longer_witness():
    S = subdivide_edge(support.tetra(), "e34", "m", "e34a", "e34b")
    L = LineField(S, frozenset({("v3", "e34a")}))
    out, corr = cancel_vertex_face(L, "m", "f123")
    assert out.matching == frozenset({("m", "e34a"), ("v3", "d_f123")})
    assert out.complex.edges["d_f123"] == ("v3", "v1")
    assert support.is_rotation(out.complex.faces["f123_1"], support.w("-e13 -d_f123"))
    assert support.is_rotation(
        out.complex.faces["f123_0"], support.w("+e12 +e23 +d_f123")
    )
    assert corr.image_of("f123") == "f123_1"
    assert out.closed_path() is None
    assert sum(out.doubled_critical().values()) == sum(L.doubled_critical().values()) == 4
    assert len(critical_cells(out)) == len(critical_cells(L)) - 1


def test_cancel_rejects_multiple_witnesses():
    with pytest.raises(CancellationError, match="found 2"):
        cancel_vertex_face(two_pair_tetra(), "v3", "f134")
    with pytest.raises(CancellationError, match="found 4"):
        cancel_vertex_face(LineField(support.torus_one()), "v", "F")


def test_cancel_rejects_unreachable_vertex():
    S = subdivide_edge(support.tetra(), "e34", "m", "e34a", "e34b")
    L = LineField(S, frozenset({("v3", "e34a")}))
    with pytest.raises(CancellationError, match="no path"):
        cancel_vertex_face(L, "v4", "f123")


def test_cancel_counts_chains_through_own_boundary():
    # The chains from v01, v11, v10 all reach v00 through u00, an edge of
    # q00's own walk.  They carry no graph separatrix, but reversing the
    # trivial witness at v00 would close a cycle through them, so they
    # must still count against uniqueness.
    S = split_face(support.grid_torus(2, 2), "q10", 1, 0, "q10d", "q10a", "q10b")
    L = LineField(
        S, frozenset({("v01", "u11"), ("v10", "u00"), ("v11", "q10d")})
    )
    assert L.closed_path() is None
    with pytest.raises(CancellationError, match="found 4"):
        cancel_vertex_face(L, "v00", "q00")


def test_cancel_rejects_nonnegative_index():
    with pytest.raises(OperationError, match="negative index"):
        cancel_vertex_face(two_pair_tetra(), "v3", "f123")


def test_cancel_rejects_matched_vertex():
    with pytest.raises(OperationError, match="matched, not critical"):
        cancel_vertex_face(two_pair_tetra(), "v1", "f134")


def test_cancel_invariants_on_random_fields():
    rng = random.Random(805)
    applied = 0
    for S in support.random_corpus(806, 12, max_moves=3):
        # Sparse matchings leave enough negative faces and critical
        # vertices for cancellation to have candidates at all.
        L = LineField(
            S, support.sample_matching(support.line_field_pairs(S), rng, keep=0.2)
        )
        if L.closed_path() is not None:
            continue
        crit = critical_cells(L)
        for f in sorted(c for c in crit if c in S.faces and crit[c] < 0):
            for v in sorted(c for c in crit if c in S.vertices):
                try:
                    out, corr = cancel_vertex_face(L, v, f)
                except (CancellationError, DegenerateOperationError):
                    continue
                applied += 1
                assert validate_line_field(out) == []
                assert out.complex.validate() == []
                assert out.closed_path() is None
                assert sum(out.doubled_critical().values()) == sum(L.doubled_critical().values())
                after = critical_cells(out)
                assert v not in after
                part_entry = corr.image_of(f)
                new_faces = set(out.complex.faces) - (set(S.faces) - {f})
                part_off = (new_faces - {part_entry}).pop()
                assert part_off not in after
                assert after.get(part_entry, 0) == crit[f] + 2
                assert len(after) == len(crit) - (2 if crit[f] == -2 else 1)
    assert applied >= 5


# ---- differential check against the move-by-move core --------------------
#
# The reference applies one contract_matched_pair, collapse_noncritical_face
# or delete_edge_merge_faces per move, building a complex and composing the
# correspondence after every move.  The library's one-pass core and merge
# must emit the same text and mapping, stop at the same degenerate face,
# and refuse with the same exception and message.


def reference_contraction_order(L):
    S = L.complex
    partner = dict(L.matching)
    remaining = set(partner)
    order = []
    while remaining:
        ready = []
        for v in remaining:
            tail, head = S.edges[partner[v]]
            if (head if v == tail else tail) not in remaining:
                ready.append(v)
        v = min(ready)
        order.append((v, partner[v]))
        remaining.discard(v)
    return order


def reference_core(L, branches):
    """The move-by-move homotopy core; adds to `branches` how it stopped."""
    assert L.closed_path() is None
    cur = L
    mapping = {c: c for c, _d in L.complex.cells()}
    for v, e in reference_contraction_order(L):
        try:
            cur, step = contract_matched_pair(cur, v, e)
        except DegenerateOperationError:
            bad = min(
                fc
                for fc, walk in cur.complex.faces.items()
                if all(ee == e for _s, ee in walk)
            )
            branches.add("degenerate contraction")
            return CoreResult(cur, CellCorrespondence(mapping), degenerate_face=bad)
        mapping = {c: step.mapping[img] for c, img in mapping.items()}
    first_removable = None
    while True:
        faces = cur.complex.faces
        bigons = [fc for fc in sorted(faces) if len(faces[fc]) == 2]
        removable = [fc for fc in bigons if faces[fc][0][1] != faces[fc][1][1]]
        if first_removable is None:
            first_removable = set(removable)
        if not removable:
            bad = bigons[0] if bigons else None
            if bad is not None:
                branches.add(
                    "bigon degenerated by a collapse"
                    if bad in first_removable
                    else "degenerate bigon from the start"
                )
            return CoreResult(cur, CellCorrespondence(mapping), degenerate_face=bad)
        bigon = faces[removable[0]]
        gone = min(bigon[0][1], bigon[1][1])
        cur, step = collapse_noncritical_face(cur, removable[0])
        if step.mapping[gone] not in {fc for fc, _i in L.complex.occurrence_index[gone]}:
            branches.add("collapse into a face that absorbed a bigon")
        mapping = {c: step.mapping[img] for c, img in mapping.items()}


def reference_merge(L, f, g, branches):
    """The move-by-move merge_critical_faces; adds to `branches` the shape
    of each corridor it merges along."""
    S = L.complex
    for x in (f, g):
        if x not in S.faces:
            raise OperationError(f"{x} is not a face of the complex")
    if f == g:
        raise OperationError("cannot merge a face with itself")
    crit = critical_cells(L)
    for x in (f, g):
        if x not in crit:
            raise OperationError(f"face {x} is not critical")
    hits = [c for c in corridors_from(L, f) if c.end == g]
    if not hits:
        raise CancellationError(f"no corridor from {f} to {g}")
    if len(hits) > 1:
        raise CancellationError(
            f"merging needs a unique corridor from {f} to {g}; found {len(hits)}"
        )
    corridor = hits[0]
    if corridor.interior:
        branches.add("merge through interior faces")
    merged_id = fresh_id(f"m_{f}_{g}", {c for c, _d in S.cells()})
    T = S
    for crossing in corridor.crossings:
        (f1, p1), (f2, p2) = T.edge_occurrences(crossing.edge)
        if merged_id in (f1, f2):
            other = f2 if f1 == merged_id else f1
            if merged_id < other:
                branches.add("merged face sorts first")
                if T.faces[f1][p1][0] == T.faces[f2][p2][0]:
                    branches.add("merged face sorts first, rest reversed")
            elif T.faces[f1][p1][0] == T.faces[f2][p2][0]:
                branches.add("merged face sorts last, its rest reversed")
        T = delete_edge_merge_faces(T, crossing.edge, merged_id)
    problems = T.validate()
    if problems:
        raise DegenerateOperationError(
            f"merging {f} and {g} breaks the complex: {problems[0]}"
        )
    mapping = {c: c for c, _d in S.cells()}
    for cell in (f, g, *corridor.interior):
        mapping[cell] = merged_id
    for crossing in corridor.crossings:
        mapping[crossing.edge] = merged_id
    return LineField(T, L.matching), CellCorrespondence(mapping)


def core_outcome(core):
    return (
        emit_line_field(core.field),
        core.correspondence.mapping,
        core.degenerate_face,
    )


def merge_outcome(merge, L, f, g):
    try:
        field, corr = merge(L, f, g)
    except OperationError as exc:
        return type(exc), str(exc)
    return emit_line_field(field), corr.mapping


def faces_renamed(S, prefix):
    """S with every face renamed so the merged face m_... sorts before it."""
    return SurfaceComplex(
        S.vertices, S.edges, {prefix + f: walk for f, walk in S.faces.items()}, name=S.name
    )


def differential_fields():
    rng = random.Random(831)
    fields = [
        LineField(support.slit_sphere(), frozenset({("u", "e")})),
        LineField(support.proj_plane()),
        LineField(support.slit_sphere()),
        two_pair_tetra(),
        LineField(support.theta_sphere(), frozenset({("u", "a")})),
        LineField(support.disk_sphere()),
    ]
    corpus = support.random_corpus(832, 60, max_moves=4)
    for S in corpus + [faces_renamed(S, "z") for S in corpus]:
        for keep in (0.3, 0.7):
            L = LineField(
                S, support.sample_matching(support.line_field_pairs(S), rng, keep=keep)
            )
            if L.closed_path() is None:
                fields.append(L)
    for rows, cols in ((2, 3), (3, 3), (4, 6), (8, 8), (12, 12), (16, 16)):
        S = support.grid_torus(rows, cols)
        fields += [support.forest_field(S, rng, keep) for keep in (1.0, 0.6, 0.25)]
    # The twisted row of a Klein grid gives corridors whose crossings carry
    # the same sign on both faces.
    for rows, cols in ((3, 4), (5, 5), (8, 8)):
        S = support.grid_klein(rows, cols)
        fields += [support.forest_field(S, rng, keep) for keep in (1.0, 1.0, 0.9, 0.6)]
    return fields


def test_core_matches_move_by_move():
    branches = set()
    for L in differential_fields():
        assert core_outcome(homotopy_core(L)) == core_outcome(reference_core(L, branches))
    assert branches == {
        "degenerate contraction",
        "degenerate bigon from the start",
        "bigon degenerated by a collapse",
        "collapse into a face that absorbed a bigon",
    }


def test_merge_matches_move_by_move():
    branches = set()
    merged = 0
    for L in differential_fields():
        crit = critical_cells(L)
        faces = [f for f in sorted(crit) if f in L.complex.faces][:12]
        for f in faces:
            for g in faces:
                got = merge_outcome(merge_critical_faces, L, f, g)
                want = merge_outcome(
                    lambda *args: reference_merge(*args, branches), L, f, g
                )
                assert got == want
                merged += got[0] is not CancellationError
    assert merged >= 50
    assert branches == {
        "merge through interior faces",
        "merged face sorts first",
        "merged face sorts first, rest reversed",
    }


def test_merge_matches_move_by_move_when_merged_face_sorts_last():
    # Faces named a... sort before the merged face m_a..., so from the
    # second crossing on, delete_edge_merge_faces keeps the other face's
    # walk forward, and a same-sign crossing reverses the merged rest.
    rng = random.Random(834)
    branches = set()
    merged = 0
    for rows, cols in ((3, 4), (5, 5), (6, 7)):
        S = faces_renamed(support.grid_klein(rows, cols), "a")
        for keep in (1.0, 0.9, 0.6):
            L = support.forest_field(S, rng, keep)
            faces = [f for f in sorted(critical_cells(L)) if f in S.faces][:12]
            for f in faces:
                for g in faces:
                    got = merge_outcome(merge_critical_faces, L, f, g)
                    want = merge_outcome(
                        lambda *args: reference_merge(*args, branches), L, f, g
                    )
                    assert got == want
                    merged += got[0] is not CancellationError
    assert merged >= 50
    assert branches == {
        "merge through interior faces",
        "merged face sorts last, its rest reversed",
    }


# ---- no surgery pinches a vertex ------------------------------------------


def test_surgery_keeps_one_link_cycle_per_vertex():
    """validate() accepts a vertex whose link falls into two cycles, so
    check the link of every vertex the core, merge and cancel moves emit."""
    rng = random.Random(861)
    fields = []
    for S in support.random_corpus(862, 40, max_moves=4):
        for keep in (0.2, 0.6):
            L = LineField(
                S, support.sample_matching(support.line_field_pairs(S), rng, keep=keep)
            )
            if L.closed_path() is None:
                fields.append(L)
    for rows, cols in ((3, 4), (5, 5), (8, 8)):
        S = support.grid_klein(rows, cols)
        fields += [support.forest_field(S, rng, keep) for keep in (1.0, 0.9, 0.6, 0.25)]
    made = {"core": 0, "merge": 0, "cancel": 0}

    def check(kind, field):
        links = field.complex.vertex_link_cycles()
        assert all(len(cycles) == 1 for cycles in links.values()), kind
        made[kind] += 1

    for L in fields:
        check("core", homotopy_core(L).field)
        crit = critical_cells(L)
        faces = [f for f in sorted(crit) if f in L.complex.faces][:6]
        vertices = [v for v in sorted(crit) if v in L.complex.vertices][:6]
        for f in faces:
            for kind, move, others in (
                ("merge", merge_critical_faces, faces),
                ("cancel", lambda L, f, v: cancel_vertex_face(L, v, f), vertices),
            ):
                for other in others:
                    try:
                        field, _corr = move(L, f, other)
                    except OperationError:
                        continue
                    check(kind, field)
    assert made["core"] >= 50 and made["merge"] >= 50 and made["cancel"] >= 20
