"""The one scan of a field's matching against the reference model.

Each field kind reads its matching once, in sorted order, in `_scan`: that
pass finds the pairing violations, builds the step table and lists the
roots of the closed-path search.  The model (tests/model.py) finds each
of these from the definitions: the violations of both field kinds, both
step relations, the root order and the closed-path witness of a
depth-first search.  On the random corpus and on seeded invalid mutants
the violations must be the same list, and on every field that passes
validation the steps, the roots and the closed-path witness must be the
same.
"""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import model
import support

from linefields import LineField, VectorField, validate_line_field, validate_vector_field
from linefields.dynamics import LPath

ROOT = Path(__file__).resolve().parent.parent


# Per kind: the package's validate function, then the model's validate
# function, step relation and closed path, and the witness of a path.
KINDS = {
    LineField: (validate_line_field, model.validate_line_field, model.line_steps,
                model.closed_line_path, lambda field, path: LPath(*path)),
    VectorField: (validate_vector_field, model.validate_vector_field, model.vector_steps,
                  model.closed_vector_path, lambda field, path: field._path(*path)),
}


# ---- fields: the corpus and seeded invalid mutants ------------------------


def _line_mutant(S, pairs, rng):
    """A line-field matching with one to three foreign pairs added: an
    unknown vertex or edge, a pair given edge first, a vertex with an edge
    it may not bound, or an incident pair that may reuse a cell."""
    matching = set(pairs)
    vertices, edges = sorted(S.vertices), sorted(S.edges)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            matching.add(("zz", rng.choice(edges)))
        elif kind == 1:
            matching.add((rng.choice(vertices), "zz"))
        elif kind == 2:
            matching.add((rng.choice(edges), rng.choice(vertices)))
        elif kind == 3:
            matching.add((rng.choice(vertices), rng.choice(edges)))
        else:
            matching.add(rng.choice(support.line_field_pairs(S)))
    return LineField(S, frozenset(matching))


def _vector_mutant(S, pairs, rng):
    """A vector-field matching with one to three foreign pairs added: an
    unknown lower or upper cell, any two cells (dimension gaps of 0 and 2,
    loops, pairs that are not incident), or an incident pair that may reuse
    a cell as lower, as upper or as both."""
    matching = set(pairs)
    cells = sorted(S.vertices) + sorted(S.edges) + sorted(S.faces)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            matching.add(("zz", rng.choice(cells)))
        elif kind == 1:
            matching.add((rng.choice(cells), "zz"))
        elif kind == 2:
            c = rng.choice(cells)
            matching.add((c, c))
        elif kind == 3:
            matching.add((rng.choice(cells), rng.choice(cells)))
        else:
            matching.add(rng.choice(support.vector_field_pairs(S)))
    return VectorField(S, frozenset(matching))


def scan_fields():
    """Valid fields of both kinds on the random corpus and the seed
    complexes, a few fixed ones (a vertex matched to a loop, an edge twice
    on its face), and two seeded invalid mutants of each valid field."""
    rng = random.Random(824)
    complexes = support.random_corpus(821, 40, max_moves=4)
    complexes += [build() for build in support.all_seed_builders()]
    fields = [
        LineField(support.torus_one(), frozenset({("v", "a")})),
        VectorField(support.torus_one(), frozenset({("v", "a")})),
        VectorField(support.torus_one(), frozenset({("a", "F")})),
        VectorField(support.proj_plane(), frozenset({("a", "F")})),
    ]
    for S in complexes:
        for keep in (0.3, 0.8):
            line = support.sample_matching(support.line_field_pairs(S), rng, keep)
            vector = support.sample_matching(support.vector_field_pairs(S), rng, keep)
            fields += [LineField(S, line), VectorField(S, vector)]
            fields += [_line_mutant(S, line, rng) for _ in range(2)]
            fields += [_vector_mutant(S, vector, rng) for _ in range(2)]
    return fields


# Every violation the two validate functions name.
_MESSAGES = (
    r"pair \(\S+, \S+\) references unknown vertex \S+",
    r"pair \(\S+, \S+\) references unknown edge \S+",
    r"pair \(\S+, \S+\): \S+ is not an endpoint of \S+",
    r"vertex \S+ appears in \d+ pairs",
    r"edge \S+ appears in \d+ pairs",
    r"pair \(\S+, \S+\) references unknown cell \S+",
    r"pair \(\S+, \S+\): dimensions differ by 0",
    r"pair \(\S+, \S+\): dimensions differ by 2",
    r"pair \(\S+, \S+\): dimensions differ by -2",
    r"pair \(\S+, \S+\): \S+ is not on the boundary walk of \S+",
    r"cell \S+ appears in \d+ pairs",
)


def _shapes(field):
    """The matching shapes a vector field shows: cells reused as lower, as
    upper and as both, loops, and a valid field with a vertex matched to a
    loop edge or an edge matched to a face it bounds twice."""
    S, matching = field.complex, field.matching
    lowers = [lo for lo, _up in matching]
    uppers = [up for _lo, up in matching]
    shapes = set()
    if len(set(lowers)) < len(lowers):
        shapes.add("reused as lower")
    if len(set(uppers)) < len(uppers):
        shapes.add("reused as upper")
    if set(lowers) & set(uppers):
        shapes.add("reused as both")
    if any(lo == up for lo, up in matching):
        shapes.add("loop pair")
    if not field._pair_problems:
        for lo, up in matching:
            if up in S.edges and support.is_loop(S, up):
                shapes.add("vertex on a loop")
            if up in S.faces and sum(e == lo for _s, e in S.faces[up]) > 1:
                shapes.add("edge twice on its face")
    return shapes


def test_scan_matches_the_passes_it_replaced():
    """The same violations as a list on every field; the same steps on every
    field whose only violations are cells in several pairs, where a cell
    steps by its last pair in sorted order; and on every field that passes
    validation, also the same roots and closed-path witness.  Every
    violation and every matching shape is reached, and closed_path() returns
    on every field, valid or not."""
    hits = dict.fromkeys(_MESSAGES, 0)
    shapes = set()
    valid = reused = 0
    for field in scan_fields():
        validate, validate_model, steps_of, closed_of, witness = KINDS[type(field)]
        data = model.field_of(field)
        problems = validate_model(data)
        assert validate(field) == problems, field
        for message in problems:
            (pattern,) = [p for p in _MESSAGES if re.fullmatch(p, message)]
            hits[pattern] += 1
        if type(field) is VectorField:
            shapes |= _shapes(field)
        closed = field.closed_path()
        if not all(re.fullmatch(r"\S+ \S+ appears in \d+ pairs", p) for p in problems):
            continue
        steps = steps_of(data)
        assert field._steps == steps
        if problems:
            reused += 1
            continue
        valid += 1
        assert list(field._scan[2]) == model.roots(data, steps)
        path = closed_of(data)
        assert closed == (None if path is None else witness(field, path))
    assert all(hits.values()), [p for p, n in hits.items() if not n]
    assert shapes == {
        "reused as lower",
        "reused as upper",
        "reused as both",
        "loop pair",
        "vertex on a loop",
        "edge twice on its face",
    }
    assert valid >= 150 and reused >= 30


def test_closed_path_of_a_matching_naming_unknown_cells():
    """A field whose matching names a cell the complex lacks reports it in
    problems(), and closed_path() returns instead of raising from a table."""
    S = support.disk_sphere()
    V = VectorField(S, frozenset({("zz", "e")}))
    assert V.problems() == ["pair (zz, e) references unknown cell zz"]
    assert V.closed_path() is None
    L = LineField(S, frozenset({("v", "zz")}))
    assert L.problems() == ["pair (v, zz) references unknown edge zz"]
    assert L.closed_path() is None


def test_vertex_in_two_pairs_steps_alike_under_both_hash_seeds():
    """A line-field vertex in two pairs steps by the last of them in sorted
    order, whatever the iteration order of the matching's frozenset: on the
    tetrahedron, for each vertex and each two edges at it.  The two seeds
    iterate half of these frozensets in different orders."""
    code = (
        "import support\n"
        "from linefields import LineField\n"
        "S = support.tetra()\n"
        "for v in sorted(S.vertices):\n"
        "    at = sorted(e for e, ends in S.edges.items() if v in ends)\n"
        "    for a, b in [(a, b) for a in at for b in at if a < b]:\n"
        "        print(v, a, b, LineField(S, frozenset({(v, a), (v, b)}))._steps)\n"
    )
    outputs = set()
    for seed in ("0", "1"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        }
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(run.stdout)
    (output,) = outputs
    S = support.tetra()
    lines = output.splitlines()
    assert len(lines) == 12
    for line in lines:
        v, _a, b, steps = line.split(" ", 3)
        tail, head = S.edges[b]
        assert steps == repr({v: ((b, head if v == tail else tail),)})
