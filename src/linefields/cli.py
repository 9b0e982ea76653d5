"""Command-line front end.

Every subcommand parses its input, validates it, and only then computes.
That policy lives in `main`: it reads the input file with the subcommand's
reader, prints each problem the field's `problems()` finds to stderr and
exits 1 before the handler runs (an OFF mesh is read as a field with no
matching, so its problems are the complex's).  A handler gets the valid
input and only computes and writes.  The argument parser is built at
import; the simplification moves and the radial bridge load on first use,
in the handlers that run them.  Exit status 0 means success, 1 a parse or
validation failure, 2 an operation whose precondition failed (cyclic
field, missing path, mesh not in the image of the bridge, and so on).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CyclicFieldError, InvalidComplexError, OperationError, ParseError
from .formats import (
    _critical_entries,
    _half_text,
    _items,
    emit_complex,
    emit_line_field,
    emit_vector_field,
    graph_dot,
    parse_document,
    parse_line_field,
    parse_off,
    parse_vector_field,
    write_report,
)
from .linefield import LineField
from .vectorfield import VectorField


def _read_field(text: str):
    """The field a native file holds: a vector field when it has vmatch
    lines, else a line field."""
    doc = parse_document(text)
    if doc.vmatch:
        return VectorField(doc.complex, doc.vmatch)
    return LineField(doc.complex, doc.match)


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _path_text(path) -> str:
    out = path.cells[0]
    for step, cell in zip(path.steps, path.cells[1:]):
        out += f" -{step}-> {cell}"
    return out


# ---- subcommand handlers --------------------------------------------------

def _cmd_validate(field, args) -> int:
    print("OK")
    return 0


def _cmd_euler(field, args) -> int:
    chi = field.complex.euler_characteristic()
    doubled = sum(field.doubled_critical().values())
    matches = doubled == 2 * chi
    verdict = "OK" if matches else "MISMATCH"
    print(f"chi={chi} index_sum={_half_text(doubled)} {verdict}")
    return 0 if matches else 2


def _cmd_critical(field, args) -> int:
    print(_items(list(_critical_entries(field, "  ")), ""))
    return 0


def _cmd_check_acyclic(field, args) -> int:
    witness = field.closed_path()
    if witness is None:
        print("acyclic")
        return 0
    print(_path_text(witness))
    return 2


def _cmd_paths(field, args) -> int:
    if args.count_only:
        print(field.count_paths(args.source, args.target))
        return 0
    for shown, path in enumerate(field.paths(args.source, args.target)):
        if shown == args.max:
            print(f"capped at {args.max}")
            break
        print(_path_text(path))
    return 0


def _cmd_ms_graph(field, args) -> int:
    if args.format == "dot":
        _write(graph_dot(field), args.out)
        return 0
    field.graph()  # refuses a cyclic field before the output file is opened
    if args.out is None:
        write_report(field, sys.stdout)
    else:
        with open(args.out, "w") as fp:
            write_report(field, fp)
    return 0


def _emit_result(field: LineField, correspondence, args) -> None:
    _write(emit_line_field(field), args.out)
    _write(json.dumps(dict(sorted(correspondence.mapping.items())), indent=2) + "\n", args.map)


def _cmd_simplify(L, args) -> int:
    from .simplify import homotopy_core
    result = homotopy_core(L)
    _emit_result(result.field, result.correspondence, args)
    if result.degenerate_face is not None:
        print(f"degenerate face: {result.degenerate_face}", file=sys.stderr)
        return 2
    return 0


def _cancel_flags(args) -> None:
    """Refuse a mix of the two cancel modes, before the file is read."""
    given = (args.faces is not None, args.vertex is not None, args.face is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise OperationError("give either --faces F G or --vertex V --face F")


def _cmd_cancel(L, args) -> int:
    from .simplify import cancel_vertex_face, merge_critical_faces
    if args.faces is not None:
        field, correspondence = merge_critical_faces(L, args.faces[0], args.faces[1])
    else:
        field, correspondence = cancel_vertex_face(L, args.vertex, args.face)
    _emit_result(field, correspondence, args)
    return 0


def _cmd_from_dvf(V, args) -> int:
    from .radial import dvf_to_dlf
    _write(emit_line_field(dvf_to_dlf(V)), args.out)
    return 0


def _cmd_to_dvf(L, args) -> int:
    from .radial import dlf_to_dvf
    primal, dual = dlf_to_dvf(L)
    _write(emit_vector_field(primal), args.out)
    if args.dual_out is not None:
        _write(emit_vector_field(dual), args.dual_out)
    return 0


def _cmd_import_off(field, args) -> int:
    _write(emit_complex(field.complex), args.out)
    return 0


# ---- parser ---------------------------------------------------------------

def _cap(text: str) -> int:
    """A --max value: a number of paths, so not negative."""
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number of paths, got {text!r}")
    return cap


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linefields",
        description="Analyze matchings on closed-surface cell complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, read=_read_field, check_flags=lambda args: None, **kwargs):
        """A subcommand on one input file: main runs `check_flags` on the
        options, `read` on the file's text and `problems()` on the field it
        read, then the handler.  --dvf switches the field reader to vector
        fields."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="input file in the native format")
        if read is _read_field:
            p.add_argument(
                "--dvf", dest="read", action="store_const", const=parse_vector_field,
                help="read a bare complex as a vector field",
            )
        p.set_defaults(func=handler, read=read, check_flags=check_flags)
        return p

    add("validate", _cmd_validate, help="report every structural violation")
    add("euler", _cmd_euler, help="compare the index sum with the Euler characteristic")
    add("critical", _cmd_critical, help="list critical cells with doubled indices")
    add("check-acyclic", _cmd_check_acyclic, help="print a closed path if one exists")

    p = add("paths", _cmd_paths, help="enumerate paths between two critical cells")
    p.add_argument("--from", dest="source", required=True, help="source cell")
    p.add_argument("--to", dest="target", required=True, help="target cell")
    p.add_argument("--count-only", action="store_true", help="print only the path count")
    p.add_argument("--max", type=_cap, default=100, help="cap on listed paths")

    p = add("ms-graph", _cmd_ms_graph, help="emit the topological graph")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("-o", "--out", help="output path (default stdout)")

    p = add("simplify", _cmd_simplify, read=parse_line_field,
            help="contract and collapse to the homotopy core")
    p.add_argument("-o", "--out", help="simplified field output path")
    p.add_argument("--map", help="correspondence table output path")

    p = add("cancel", _cmd_cancel, read=parse_line_field, check_flags=_cancel_flags,
            help="merge two faces or cancel a vertex against a face")
    p.add_argument("--faces", nargs=2, metavar=("F", "G"), help="critical faces to merge")
    p.add_argument("--vertex", help="critical vertex to cancel")
    p.add_argument("--face", help="critical face to cancel against")
    p.add_argument("-o", "--out", help="result field output path")
    p.add_argument("--map", help="correspondence table output path")

    p = add("from-dvf", _cmd_from_dvf, read=parse_vector_field,
            help="turn a vector field into a line field")
    p.add_argument("-o", "--out", help="output path (default stdout)")

    p = add("to-dvf", _cmd_to_dvf, read=parse_line_field,
            help="factor a radial line field into vector fields")
    p.add_argument("-o", "--out", help="first factor output path")
    p.add_argument("--dual-out", help="second factor output path")

    p = add("import-off", _cmd_import_off, read=lambda text: LineField(parse_off(text)),
            help="convert an OFF triangle mesh")
    p.add_argument("-o", "--out", help="output path (default stdout)")

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.check_flags(args)
        field = args.read(Path(args.file).read_text())
        problems = field.problems()
        for p in problems:
            print(p, file=sys.stderr)
        if problems:
            return 1
        return args.func(field, args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CyclicFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"witness: {_path_text(exc.witness)}", file=sys.stderr)
        return 2
    except (OperationError, InvalidComplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
