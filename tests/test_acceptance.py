"""Acceptance suite: one test per shipping criterion.

Each test prints a single pass line on success, so a verbose run shows one
verdict per criterion.  Tolerances are exact throughout; every compared
value is an integer.
"""

import json
import random
import time
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
import support

from linefields import (
    CancellationError,
    DegenerateOperationError,
    LineField,
    VectorField,
    cancel_dvf,
    cancel_vertex_face,
    closed_x_path,
    corridors_from,
    critical_cells,
    critical_cells_dvf,
    dlf_to_dvf,
    dualize,
    dvf_to_dlf,
    emit_complex,
    homotopy_core,
    l_paths,
    line_fields_isomorphic,
    merge_critical_faces,
    parse_complex,
    radial_decomposition,
    topological_graph,
    validate_line_field,
    validate_vector_field,
    x_paths,
)
from linefields.cli import main

GOLD = Path(__file__).parent / "golden"


def chi(S):
    return len(S.vertices) - len(S.edges) + len(S.faces)


@lru_cache(maxsize=1)
def shared_corpus():
    """Seed surfaces plus randomized growths, all with at most 12 edges."""
    out = [b() for b in support.all_seed_builders()]
    out += support.random_corpus(910, 40)
    assert all(len(S.edges) <= 12 for S in out)
    assert all(S.validate() == [] for S in out)
    names = {S.name for S in out}
    assert {"tetra", "torus1", "proj_plane"} <= names
    assert {chi(S) for S in out} >= {2, 1, 0}
    return out


def test_criterion_1_euler_line_fields():
    start = time.monotonic()
    rng = random.Random(911)
    checked = 0
    for S in shared_corpus():
        doubled = 2 * chi(S)
        pairs = support.line_field_pairs(S)
        for _ in range(22):
            L = LineField(S, support.sample_matching(pairs, rng))
            assert validate_line_field(L) == []
            assert sum(L.doubled_critical().values()) == doubled
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 1000
    assert elapsed < 10.0
    print(f"criterion 1: PASS ({checked} matchings, {elapsed:.2f}s)")


def test_criterion_2_euler_vector_fields():
    rng = random.Random(912)
    checked = 0
    for S in shared_corpus():
        pairs = support.vector_field_pairs(S)
        for _ in range(22):
            V = VectorField(S, support.sample_matching(pairs, rng))
            assert validate_vector_field(V) == []
            assert sum(critical_cells_dvf(V).values()) == chi(S)
            checked += 1
    assert checked >= 1000
    print(f"criterion 2: PASS ({checked} matchings)")


def test_criterion_3_worked_fixtures():
    tetra = critical_cells(LineField(support.tetra()))
    assert sum(tetra.values()) == 4  # doubled, so index sum 2
    assert sorted(v for c, v in tetra.items() if c.startswith("f")) == [-1, -1, -1, -1]

    torus = critical_cells(LineField(support.torus_one()))
    assert sum(torus.values()) == 0
    assert torus["F"] == -2

    disk = critical_cells(LineField(support.disk_sphere()))
    assert sum(disk.values()) == 4
    assert disk["n"] == 1 and disk["s"] == 1
    print("criterion 3: PASS")


def graph_counter(graph):
    return Counter((s.source, s.target) for s in graph.edges)


def test_criterion_4_homotopy_theorem():
    rng = random.Random(913)
    complete = 0
    corpus = [b() for b in support.all_seed_builders()]
    corpus += support.random_corpus(914, 20, max_moves=3)
    for S in corpus:
        pairs = support.line_field_pairs(S)
        fields = [frozenset()] + [support.sample_matching(pairs, rng) for _ in range(6)]
        for matching in fields:
            L = LineField(S, matching)
            if L.closed_path() is not None:
                continue
            out = homotopy_core(L)
            if out.degenerate_face is not None:
                continue
            assert out.field.matching == frozenset()
            corr = out.correspondence
            relabeled = Counter(
                (corr.image_of(s.source), corr.image_of(s.target))
                for s in topological_graph(L).edges
            )
            core_graph = graph_counter(topological_graph(out.field))
            assert relabeled == core_graph
            R = radial_decomposition(out.field.complex)
            corners = Counter()
            for _rid, (tail, head) in sorted(R.complex.edges.items()):
                corners[(R.vertex_origin[head], R.vertex_origin[tail])] += 1
            assert corners == core_graph
            complete += 1
    assert complete >= 40
    fix = homotopy_core(LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")})))
    core = fix.field.complex
    assert (len(core.vertices), len(core.edges), len(core.faces)) == (2, 2, 2)
    assert len(topological_graph(fix.field).edges) == 4
    print(f"criterion 4: PASS ({complete} cores checked)")


def round_trip_holds(V):
    S = V.complex
    image = dvf_to_dlf(V)
    A, B = dlf_to_dvf(image)
    primal = {f"w_{v}": v for v in S.vertices}
    dual = {f"w_{f}": f for f in S.faces}
    Vd = dualize(V)
    forward = line_fields_isomorphic(A, V, vertex_map=primal) and line_fields_isomorphic(
        B, Vd, vertex_map=dual
    )
    swapped = line_fields_isomorphic(B, V, vertex_map=primal) and line_fields_isomorphic(
        A, Vd, vertex_map=dual
    )
    assert forward or swapped
    identity = {w: w for w in image.complex.vertices}
    assert line_fields_isomorphic(image, dvf_to_dlf(Vd), vertex_map=identity)


def test_criterion_5_radial_round_trip():
    exhaustive = 0
    for build in support.all_seed_builders():
        S = build()
        if len(S.edges) > 5:
            continue
        for matching in support.all_matchings(support.vector_field_pairs(S)):
            round_trip_holds(VectorField(S, matching))
            exhaustive += 1
    assert exhaustive >= 100

    rng = random.Random(915)
    corpus = support.random_corpus(
        916, 50, max_moves=2, seeds=[support.tetra, lambda: support.grid_torus(2, 2)]
    )
    assert all(len(S.edges) > 5 for S in corpus)
    sampled = 0
    while sampled < 500:
        S = corpus[sampled % len(corpus)]
        V = VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
        round_trip_holds(V)
        sampled += 1
    print(f"criterion 5: PASS ({exhaustive} exhaustive, {sampled} random)")


def test_criterion_6_cancellation_soundness():
    rng = random.Random(917)
    merges = cancels = 0
    corpus = [b() for b in support.all_seed_builders()]
    corpus += support.random_corpus(918, 25, max_moves=2)
    for S in corpus:
        assert len(S.edges) <= 10
        doubled = 2 * chi(S)
        pairs = support.line_field_pairs(S)
        matchings = {frozenset()}
        matchings |= {support.sample_matching(pairs, rng, keep=0.3) for _ in range(4)}
        for matching in matchings:
            L = LineField(S, matching)
            if L.closed_path() is not None:
                continue
            crit = critical_cells(L)
            faces = [c for c in crit if c in S.faces]
            # merge instances: applicability read off the corridor census
            for f in faces:
                ends = Counter(c.end for c in corridors_from(L, f))
                for g in faces:
                    if g == f:
                        continue
                    if ends.get(g, 0) != 1:
                        continue
                    try:
                        out, _corr = merge_critical_faces(L, f, g)
                    except DegenerateOperationError:
                        continue  # merged walk would break the complex
                    assert out.complex.validate() == []
                    assert validate_line_field(out) == []
                    assert out.closed_path() is None
                    assert sum(out.doubled_critical().values()) == doubled
                    assert len(critical_cells(out)) < len(crit)
                    merges += 1
            # cancel instances: applicability read off direct matching chases
            chase_map = dict(L.matching)

            def chase(u):
                while u in chase_map:
                    tail, head = S.edges[chase_map[u]]
                    u = head if u == tail else tail
                return u

            for f in faces:
                if crit[f] >= 0:
                    continue
                hits = Counter(
                    chase(S.corner_vertex(f, i)) for i in range(len(S.faces[f]))
                )
                for v in (c for c in crit if c in S.vertices):
                    if hits.get(v, 0) != 1:
                        continue
                    try:
                        out, _corr = cancel_vertex_face(L, v, f)
                    except DegenerateOperationError:
                        continue  # every admissible diagonal was a loop
                    assert out.complex.validate() == []
                    assert validate_line_field(out) == []
                    assert out.closed_path() is None
                    assert sum(out.doubled_critical().values()) == doubled
                    assert len(critical_cells(out)) < len(crit)
                    cancels += 1
    assert merges >= 30 and cancels >= 10

    two_pair = LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")}))
    merged, _ = merge_critical_faces(two_pair, "f123", "f134")
    assert len(critical_cells(two_pair)) == 4 and len(critical_cells(merged)) == 2
    cancelled, _ = cancel_vertex_face(two_pair, "v4", "f134")
    assert len(critical_cells(cancelled)) == 3
    print(f"criterion 6: PASS ({merges} merges, {cancels} cancels)")


def brute_x_witnesses(V, upper, lower):
    """Per-occurrence path count by plain recursion over the matching."""
    S = V.complex
    up_of = dict(V.matching)
    low_dim = S.dim_of(lower)

    def ways(cell):
        t = up_of.get(cell)
        if t is None:
            return 1 if cell == lower else 0
        if low_dim == 0:
            nexts = [w for w in S.edges[t] if w != cell]
        else:
            nexts = [e for _s, e in S.faces[t] if e != cell]
        return sum(ways(n) for n in nexts)

    if low_dim == 0:
        starts = list(S.edges[upper])
    else:
        starts = [e for _s, e in S.faces[upper]]
    return sum(ways(c) for c in starts)


def test_criterion_7_forman_cancellation():
    rng = random.Random(919)
    done = rejected = 0
    corpus = [b() for b in support.all_seed_builders()]
    corpus += support.random_corpus(920, 20, max_moves=2)
    for S in corpus:
        pairs = support.vector_field_pairs(S)
        matchings = {frozenset()}
        matchings |= {support.sample_matching(pairs, rng, keep=0.4) for _ in range(4)}
        for matching in matchings:
            V = VectorField(S, matching)
            if closed_x_path(V) is not None:
                continue
            crit = critical_cells_dvf(V)
            for upper in sorted(crit):
                du = S.dim_of(upper)
                if du == 0:
                    continue
                for lower in sorted(crit):
                    if S.dim_of(lower) != du - 1:
                        continue
                    witnesses = brute_x_witnesses(V, upper, lower)
                    if witnesses == 1:
                        out = cancel_dvf(V, upper, lower)
                        assert closed_x_path(out) is None
                        assert validate_vector_field(out) == []
                        assert sum(critical_cells_dvf(out).values()) == sum(
                            critical_cells_dvf(V).values()
                        )
                        assert len(critical_cells_dvf(out)) == len(crit) - 2
                        done += 1
                    else:
                        with pytest.raises(CancellationError):
                            cancel_dvf(V, upper, lower)
                        rejected += 1
    assert done >= 30 and rejected >= 10
    print(f"criterion 7: PASS ({done} cancelled, {rejected} rejected)")


def matchings_up_to(pairs, limit):
    pairs = sorted(set(pairs))
    chosen = []
    used = set()

    def rec(start):
        yield frozenset(chosen)
        if len(chosen) == limit:
            return
        for j in range(start, len(pairs)):
            a, b = pairs[j]
            if a in used or b in used:
                continue
            chosen.append(pairs[j])
            used.update((a, b))
            yield from rec(j + 1)
            chosen.pop()
            used.difference_update((a, b))

    return rec(0)


def brute_l_path(L, source, target):
    """Follow the matching from `source`; return the walk to `target` or None."""
    S = L.complex
    step = dict(L.matching)
    vertices, edges = [source], []
    while vertices[-1] != target:
        u = vertices[-1]
        if u not in step:
            return None
        tail, head = S.edges[step[u]]
        edges.append(step[u])
        vertices.append(head if u == tail else tail)
    return tuple(vertices), tuple(edges)


def brute_x_paths(V, source, target):
    """Depth-first enumeration of (cells, witness cells) sequences."""
    S = V.complex
    up_of = dict(V.matching)
    low_dim = S.dim_of(target)
    found = []

    def rec(cell, cells, wits):
        t = up_of.get(cell)
        if t is None:
            if cell == target:
                found.append((tuple(cells), tuple(wits)))
            return
        if low_dim == 0:
            nexts = [w for w in S.edges[t] if w != cell]
        else:
            nexts = [e for _s, e in S.faces[t] if e != cell]
        for n in nexts:
            rec(n, cells + [n], wits + [t])

    if low_dim == 0:
        starts = list(dict.fromkeys(S.edges[source]))
    else:
        starts = list(dict.fromkeys(e for _s, e in S.faces[source]))
    for c in starts:
        rec(c, [c], [])
    return sorted(found)


def test_criterion_8_path_oracles():
    line_checked = x_checked = 0
    for build in support.all_seed_builders():
        S = build()
        assert len(S.edges) <= 8
        for matching in matchings_up_to(support.line_field_pairs(S), 4):
            L = LineField(S, matching)
            if L.closed_path() is not None:
                continue
            for source in sorted(S.vertices):
                for target in sorted(S.vertices):
                    got = l_paths(L, source, target)
                    want = brute_l_path(L, source, target)
                    if want is None:
                        assert got == []
                    else:
                        assert len(got) == 1
                        assert (got[0].vertices, got[0].edges) == want
                    line_checked += 1
        for matching in matchings_up_to(support.vector_field_pairs(S), 4):
            V = VectorField(S, matching)
            if closed_x_path(V) is not None:
                continue
            crit = critical_cells_dvf(V)
            uppers = [c for c in sorted(crit) if S.dim_of(c) > 0]
            for upper in uppers:
                for lower in sorted(crit):
                    if S.dim_of(lower) != S.dim_of(upper) - 1:
                        continue
                    got = sorted(
                        (p.cells, tuple(w[0] for w in p.witnesses))
                        for p in x_paths(V, upper, lower)
                    )
                    assert got == brute_x_paths(V, upper, lower)
                    x_checked += 1
    assert line_checked >= 1000 and x_checked >= 1000
    print(f"criterion 8: PASS ({line_checked} l-path, {x_checked} x-path queries)")


def test_criterion_9_cli_goldens(tmp_path, capsys):
    fixtures = [
        ("tetra", support.tetra),
        ("torus1", support.torus_one),
        ("disk_sphere", support.disk_sphere),
    ]
    for stem, build in fixtures:
        path = tmp_path / f"{stem}.txt"
        path.write_text(emit_complex(build()))
        for fmt in ("dot", "json"):
            assert main(["ms-graph", str(path), "--format", fmt]) == 0
            want = (GOLD / f"{stem}_empty.{fmt}").read_text()
            assert capsys.readouterr().out == want
    out = tmp_path / "ico.txt"
    assert main(["import-off", str(GOLD / "icosahedron.off"), "-o", str(out)]) == 0
    S = parse_complex(out.read_text())
    assert S.validate() == []
    assert chi(S) == 2
    assert main(["euler", str(out)]) == 0
    assert capsys.readouterr().out == "chi=2 index_sum=2 OK\n"
    print("criterion 9: PASS")
