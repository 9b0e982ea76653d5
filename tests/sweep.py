"""Byte-identity sweep of the command line, and of library operations no
CLI call runs.

Runs every subcommand, with its output-file flags, through
`linefields.cli.main` in process, on deterministic inputs built with
`support`: the seed complexes, the random corpus, grid tori and Klein
bottles with sampled, forest, tree-cotree and serpentine fields, radial
images, the golden inputs, and invalid ones.  Every call runs in one
temporary working directory on relative file names, so no temporary path
reaches argv or a message.  Each call is hashed once: one SHA-256 over its
argv, exit code, stdout, stderr and output files.  golden/sweep.sha256
holds one line per call, `<digest>  <argv>`.

After the CLI calls come the library's: each operation in LIBRARY, which
no CLI call runs, on every distinct valid complex among the inputs, named
by the first file that holds it.  Its line is `<digest>  <name>(<file>)`,
over the name, the file and a canonical text of the result, or of the
exception's class and message, that does not depend on the hash seed.

    PYTHONPATH=src python tests/sweep.py            # compare with the digest file
    PYTHONPATH=src python tests/sweep.py --write    # rewrite the digest file

A change that alters output on purpose rewrites the digest file in the same
commit and names the calls and the reason.  Run it under two
PYTHONHASHSEED values: a difference between them is an ordering bug.
"""

import argparse
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import support  # noqa: E402
from linefields import (  # noqa: E402
    InvalidComplexError,
    LineField,
    OperationError,
    ParseError,
    SurfaceComplex,
    VectorField,
    dvf_to_dlf,
    emit_complex,
    emit_line_field,
    emit_vector_field,
    is_radial,
    parse_document,
    radial_decomposition,
)
from linefields.cli import main  # noqa: E402

DIGESTS = HERE / "golden" / "sweep.sha256"
OUTPUTS = ("out.txt", "map.json", "dual.txt")
LIBRARY = {
    "is_radial": is_radial,
    "radial_decomposition": radial_decomposition,
    "dual": SurfaceComplex.dual,
}

TETRA_OFF = "OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
INVALID_OFF = {
    "open.off": support.OPEN_OFF,
    "three_faces.off": "OFF\n4 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 2 1\n3 0 1 3\n",
    "negative.off": "OFF\n-1 0 0\n",
    "short.off": "OFF\n4 4 6\n0 0 0\n",
    "counts.off": "OFF\nfour 4 6\n",
    "empty.off": "",
}


def inputs():
    """(file name, text) of every input, in a fixed order."""
    rng = random.Random(2024)
    files = []

    def fields(stem, S, keep=0.5):
        """A bare complex plus line and vector fields on S; radial images of
        the vector fields join the list as line-field inputs."""
        files.append((f"{stem}.txt", emit_complex(S)))
        lines = [
            LineField(S, support.sample_matching(support.line_field_pairs(S), rng, keep)),
            support.forest_field(S, rng, rng.choice([0.5, 1.0])),
        ]
        vectors = [VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng, keep))]
        pairs = support.tree_cotree(S, dict(lines[1].matching))
        if pairs is not None:
            vectors.append(VectorField(S, pairs))
        for k, L in enumerate(lines):
            files.append((f"{stem}.line{k}.txt", emit_line_field(L)))
        for k, V in enumerate(vectors):
            files.append((f"{stem}.vector{k}.txt", emit_vector_field(V)))
            if not V.problems():
                try:
                    image = dvf_to_dlf(V)
                except OperationError:
                    continue
                files.append((f"{stem}.image{k}.txt", emit_line_field(image)))

    for k, build in enumerate(support.all_seed_builders()):
        fields(f"seed{k}", build())
    for k, S in enumerate(support.random_corpus(2025, 30, max_moves=5)):
        fields(f"corpus{k:02}", S, keep=rng.choice([0.3, 0.6, 0.9]))
    for build in (support.grid_torus, support.grid_klein):
        for n, m in ((1, 3), (2, 3), (3, 4)):
            fields(f"{build.__name__}{n}x{m}", build(n, m), keep=0.8)
    files.append(("serpentine.txt", emit_vector_field(support.serpentine_torus(5, 5)[0])))
    for path in sorted((HERE / "golden" / "fields").glob("*.txt")):
        files.append((f"golden_{path.name}", path.read_text()))
    files.append(("icosahedron.off", (HERE / "golden" / "icosahedron.off").read_text()))
    files.append(("tetra.off", TETRA_OFF))
    files.extend(INVALID_OFF.items())
    tetra = emit_complex(support.tetra())
    files += [
        ("no_face.txt", emit_complex(support.tetra_without_face())),
        ("bad_pair.txt", tetra + "match v1 e34\n"),
        ("twice.txt", tetra + "match v1 e12\nmatch v1 e13\n"),
        ("bad_vpair.txt", tetra + "vmatch v1 f123\n"),
        ("unknown.txt", tetra + "match v9 e12\n"),
        ("both.txt", tetra + "match v1 e12\nvmatch e23 f123\n"),
        ("directive.txt", tetra.replace("edge e12", "edje e12")),
        ("order.txt", tetra + "vertex v5\n"),
        ("no_surface.txt", tetra.split("\n", 1)[1]),
    ]
    # Comment lines, one input per refusal the inputs above do not reach,
    # and the two fields that the extra calls in calls() name.
    off = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
    files += [
        ("comments.txt", "# a tetrahedron\n" + tetra.replace("vertex v1\n", "vertex v1  # v\n")),
        ("second_surface.txt", "surface again\n" + tetra),
        ("token_count.txt", tetra.replace("vertex v4", "vertex v4 v5")),
        ("duplicate_id.txt", tetra.replace("edge e34", "edge v4")),
        ("edge_unknown_vertex.txt", tetra.replace("edge e34 v3 v4", "edge e34 v3 v9")),
        ("unsigned.txt", tetra.replace("walk +e12", "walk e12")),
        ("walk_unknown_edge.txt", tetra.replace("walk +e12", "walk +e99")),
        ("bad_face.off", off + "x 0 1 2\n"),
        ("quad.off", off + "4 0 1 2 3\n"),
        ("out_of_range.off", off + "3 0 1 7\n"),
        ("broken_walk.txt", "surface b\nvertex u\nvertex x\nedge e u x\nedge g u x\n"
                            "face F walk +e +g\nface G walk -e -g\n"),
        ("disconnected.txt", "surface d\nvertex v\nvertex w\nedge a v v\nedge b v v\nedge c w w\n"
                             "edge d w w\nface F walk +a +b -a -b\nface G walk +c +d -c -d\n"),
        ("faceless.txt", "surface x\nvertex v\n"),
        ("match_unknown_edge.txt", tetra + "match v1 e99\n"),
        ("vmatch_not_endpoint.txt", tetra + "vmatch v1 e23\n"),
        ("vmatch_off_boundary.txt", tetra + "vmatch e12 f134\n"),
        ("vmatch_unknown_lower.txt", tetra + "vmatch x9 f123\n"),
        ("vmatch_unknown_upper.txt", tetra + "vmatch v1 x9\n"),
        ("vmatch_twice.txt", tetra + "vmatch v1 e12\nvmatch v1 e13\n"),
        ("chained.txt", "surface t\nvertex u\nvertex w\nvertex x\nedge a u w\nedge b w x\n"
                        "face F walk +a +b -b -a\nmatch u a\nmatch w b\n"),
        ("vfield.txt", tetra + "vmatch v1 e12\n"),
        ("lfield.txt", tetra + "match v1 e12\n"),
    ]
    return files


def _queries(text):
    """(paths queries, cancel moves) naming the critical cells of the field
    the file holds when it is valid, else any of its cells.  Queries run from
    a vertex to a vertex, or from a cell to one of the next lower dimension."""
    try:
        doc = parse_document(text)
    except (ParseError, InvalidComplexError):
        return [], []
    S = doc.complex
    field = VectorField(S, doc.vmatch) if doc.vmatch else LineField(S, doc.match)
    cells = sorted(c for c, _d in support.cells(S))
    if not field.problems():
        cells = sorted(field.doubled_critical())
    pairs = [(a, b) for a in cells for b in cells
             if a != b and (S.dim_of(a), S.dim_of(b)) in ((0, 0), (1, 0), (2, 1))]
    vertices = [c for c in cells if c in S.vertices]
    faces = [c for c in cells if c in S.faces]
    moves = [["--faces", f, g] for f in faces for g in faces if f < g]
    moves += [["--vertex", v, "--face", f] for v in vertices for f in faces]
    return pairs, moves


def calls(files):
    """The argv of every call, in a fixed order, without repeats."""
    rng = random.Random(2026)
    out = []
    names = [name for name, _text in files] + ["missing.txt", "."]
    texts = dict(files)
    for name in names:
        for dvf in ([], ["--dvf"]):
            out += [
                ["validate", name, *dvf],
                ["euler", name, *dvf],
                ["critical", name, *dvf],
                ["check-acyclic", name, *dvf],
                ["ms-graph", name, *dvf],
                ["ms-graph", name, "--format", "json", "-o", "out.txt", *dvf],
            ]
        pairs, moves = _queries(texts.get(name, ""))
        for a, b in rng.sample(pairs, min(3, len(pairs))) or [("v1", "v2")]:
            out += [
                ["paths", name, "--from", a, "--to", b],
                ["paths", name, "--from", a, "--to", b, "--count-only"],
                ["paths", name, "--from", a, "--to", b, "--max", "1", "--dvf"],
            ]
        out += [
            ["simplify", name, "-o", "out.txt", "--map", "map.json"],
            ["simplify", name],
            ["from-dvf", name, "-o", "out.txt"],
            ["from-dvf", name],
            ["to-dvf", name, "-o", "out.txt", "--dual-out", "dual.txt"],
            ["to-dvf", name],
            ["import-off", name, "-o", "out.txt"],
            ["import-off", name],
        ]
        for move in rng.sample(moves, min(3, len(moves))) or [["--faces", "f123", "f134"]]:
            out.append(["cancel", name, *move, "-o", "out.txt", "--map", "map.json"])
        out.append(["cancel", name, "--faces", "a", "b", "--vertex", "v", "-o", "out.txt"])
    # Refusals of a query or move the per-file calls do not make, and the
    # JSON report on stdout.
    out += [
        ["ms-graph", "seed0.txt", "--format", "json"],
        ["paths", "vfield.txt", "--from", "e12", "--to", "v3", "--dvf"],
        ["cancel", "seed0.txt", "--faces", "f123", "f123"],
        ["cancel", "seed0.txt", "--vertex", "v9", "--face", "f123"],
        ["cancel", "seed0.txt", "--vertex", "v1", "--face", "f9"],
        ["cancel", "lfield.txt", "--vertex", "v1", "--face", "f123"],
    ]
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def library_calls(files):
    """(label, operation name, complex) of every library call, in a fixed
    order: each operation on the first file of each distinct valid complex."""
    complexes = {}
    for name, text in files:
        try:
            S = parse_document(text).complex
        except (ParseError, InvalidComplexError):
            continue
        if not S.validate():
            complexes.setdefault(emit_complex(S), (name, S))
    return [(f"{op}({name})", op, S) for name, S in complexes.values() for op in LIBRARY]


def canonical(op, S):
    """LIBRARY[op](S) as text: a verdict as itself, a complex as its file, a
    refinement as its complex's file and its sorted origin maps; an
    exception as its class and message."""
    try:
        result = LIBRARY[op](S)
    except Exception as exc:  # a refusal is recorded like a result
        return f"raised {type(exc).__name__}: {exc}"
    if op == "is_radial":
        return str(result)
    if op == "dual":
        return emit_complex(result)
    origins = sorted(result.vertex_origin.items()) + sorted(result.face_origin.items())
    return emit_complex(result.complex) + "".join(f"origin {a} {b}\n" for a, b in origins)


def run_library(calls):
    """{label: digest} for the given library calls."""
    return {label: hashlib.sha256(json.dumps([label, canonical(op, S)]).encode()).hexdigest()
            for label, op, S in calls}


@contextmanager
def workdir(files):
    """A temporary working directory holding the inputs, entered for the body."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files:
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


def digest(argv):
    """Run one call in the current directory and hash what it did."""
    for name in OUTPUTS:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is recorded, not hidden
            code = f"raised {type(exc).__name__}: {exc}"
    written = [[name, Path(name).read_text()] for name in OUTPUTS if Path(name).exists()]
    record = json.dumps([argv, code, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(record.encode()).hexdigest()


def run(argvs, files):
    """{argv text: digest} for the given calls."""
    with workdir(files):
        return {" ".join(argv): digest(argv) for argv in argvs}


def read_digests():
    """{argv text: digest} from the committed digest file."""
    pairs = (line.split("  ", 1) for line in DIGESTS.read_text().splitlines())
    return {label: hexdigest for hexdigest, label in pairs}


def mismatches(got):
    """Labels whose digest differs from the committed one, or has none."""
    want = read_digests()
    return [label for label, hexdigest in got.items() if want.get(label) != hexdigest]


def main_sweep(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Byte-identity sweep of the CLI.")
    parser.add_argument("--write", action="store_true", help="rewrite golden/sweep.sha256")
    args = parser.parse_args(argv)
    files = inputs()
    argvs = calls(files)
    got = run(argvs, files) | run_library(library_calls(files))
    if args.write:
        DIGESTS.write_text("".join(f"{h}  {label}\n" for label, h in got.items()))
        print(f"wrote {len(got)} digests to {DIGESTS}")
        return 0
    bad = mismatches(got)
    missing = sorted(set(read_digests()) - set(got))
    for label in bad:
        print(f"differs: {label}")
    for label in missing:
        print(f"not run: {label}")
    print(f"{len(got)} calls, {len(bad)} differ, {len(missing)} not run")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
