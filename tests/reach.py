"""Reachability gate: every function in the package runs in some sweep call.

Runs the byte-identity sweep (tests/sweep.py) with `sys.setprofile` on only
inside each `linefields.cli.main` call and each call of an operation in
sweep.LIBRARY, so what the sweep runs to build its inputs does not count,
and compares every digest as the sweep does.  Every function and lambda in
src/linefields/ that no call runs must be on ALLOWED below, under the one
reason it is kept; a listed function that a call does run, or that no
longer exists, is a stale entry.  Either fails the run, as a digest that
differs does.

    PYTHONPATH=src python tests/reach.py

A function is keyed by its file, name and first line (its first
decorator's line when decorated), as its code object reports them; the
key maps to the function's node in the file's syntax tree, which names it
as file:qualified.name in ALLOWED and in the messages.  The first line
alone would not do: `add`'s default `lambda args: None` in cli.py shares
it with `def add`.  Nor would the qualified name: code objects carry none
before Python 3.11.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import sweep  # noqa: E402

PACKAGE = HERE.parent / "src" / "linefields"

# Functions no CLI call runs, by the reason each is kept.
ALLOWED = {
    "runs at import, or serves only dir()": (
        "__init__.py:__dir__",
        "__init__.py:__getattr__",
        "cli.py:_build_parser",
        "cli.py:_build_parser.add",
        "errors.py:_OnRead.__init__",
        "errors.py:_OnRead.__set_name__",
    ),
    "record dunders, which no CLI call compares, hashes or prints": (
        "errors.py:_Record.__delattr__",
        "errors.py:_Record.__init_subclass__.<lambda>#1",
        "errors.py:_Record.__init_subclass__.<lambda>#2",
        "errors.py:_Record.__init_subclass__.__eq__",
        "errors.py:_Record.__repr__",
        "errors.py:_Record.__setattr__",
    ),
    "paper operations, and the checks and decode they use, kept for library users": (
        "dynamics.py:TopologicalGraph.multiplicity",
        "dynamics.py:_Field.lower_of",
        "dynamics.py:_Field.matched_cells",
        "dynamics.py:_Field.upper_of",
        "dynamics.py:_separatrices",
        "dynamics.py:_walk",
        "dynamics.py:ms_decomposition",
        "formats.py:parse_complex",
        "formats.py:report_json",
        "linefield.py:validate_line_field",
        "simplify.py:CellCorrespondence.image_of",
        "simplify.py:CellCorrespondence.preimages",
        "surface.py:SurfaceComplex.__post_init__",
        "surface.py:fresh_id",
        "surface.py:split_face",
        "vectorfield.py:cancel_dvf",
        "vectorfield.py:dualize",
        "vectorfield.py:validate_vector_field",
    ),
    "read only by perfbench, which is frozen with the benchmark": (
        "errors.py:_FieldTable.__get__",
        "formats.py:parse_graph_json",
        "surface.py:SurfaceComplex.edge_occurrences",
        "surface.py:SurfaceComplex.vertex_link_cycles",
        "surface.py:_surgery_result",
        "surface.py:delete_edge_merge_faces",
    ),
}


def functions():
    """{(file, name, first line): 'file:qualified.name'} for every function
    and lambda in the package, from each file's syntax tree; a function's
    decorators and defaults count as inside it.  Where one qualified name
    is given twice (two lambdas in one scope), each gets '#k', its place
    among them in the file."""
    found = {}

    def visit(node, scope, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                lines = [d.lineno for d in getattr(child, "decorator_list", [])]
                key = (file, name, min(lines + [child.lineno]))
                if key in found:  # a code object could not tell the two apart
                    raise SystemExit(f"two functions keyed {key}")
                found[key] = f"{file}:{'.'.join(scope + [name])}"
                visit(child, scope + [name], file)
            else:
                visit(child, scope + [child.name] if isinstance(child, ast.ClassDef) else scope, file)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path.name)
    seen = Counter()
    twice = {name for name, n in Counter(found.values()).items() if n > 1}
    for key in sorted(k for k, name in found.items() if name in twice):
        seen[found[key]] += 1
        found[key] += f"#{seen[found[key]]}"
    return found


def profiled(main, ran):
    """`main`, a function of one argument, with the profiler on for the
    length of each call, adding the code object of every Python function it
    enters to `ran`."""

    def record(frame, event, _arg):
        if event == "call":
            ran.add(frame.f_code)

    def call(arg):
        sys.setprofile(record)
        try:
            return main(arg)
        finally:
            sys.setprofile(None)

    return call


def verdict(known, ran):
    """The names of the functions never run, of those not allowed, and of
    the allowed ones that run or do not exist."""
    root = str(PACKAGE.resolve())
    keys = {
        (Path(code.co_filename).name, code.co_name, code.co_firstlineno)
        for code in ran
        if str(Path(code.co_filename).resolve().parent) == root
    }
    unrun = {name for key, name in known.items() if key not in keys}
    allowed = {name for names in ALLOWED.values() for name in names}
    return unrun, sorted(unrun - allowed), sorted(allowed - unrun)


def main() -> int:
    known = functions()
    ran = set()
    sweep.main = profiled(sweep.main, ran)
    sweep.LIBRARY = {op: profiled(call, ran) for op, call in sweep.LIBRARY.items()}
    status = sweep.main_sweep([])
    unrun, missing, stale = verdict(known, ran)
    for name in missing:
        print(f"never run, not allowed: {name}")
    for name in stale:
        print(f"stale allow-list entry (runs, or does not exist): {name}")
    print(f"{len(known)} functions, {len(unrun)} never run, {len(missing)} not allowed,"
          f" {len(stale)} stale")
    return 1 if status or missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
