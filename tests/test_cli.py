"""CLI subcommands, exit codes, and emitted artifacts."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from isomorphism import line_fields_isomorphic
import support

from linefields import (
    LineField,
    VectorField,
    critical_cells,
    dvf_to_dlf,
    emit_complex,
    emit_line_field,
    emit_vector_field,
    parse_complex,
    parse_graph_json,
    parse_line_field,
    parse_off,
    parse_vector_field,
)
from linefields.cli import main

GOLD = Path(__file__).parent / "golden"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def tetra_file(tmp_path, matching=frozenset()):
    return write(tmp_path, "tetra.txt", emit_line_field(LineField(support.tetra(), matching)))


# ---- validate -------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    assert main(["validate", tetra_file(tmp_path)]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_validate_reports_structural_problems(tmp_path, capsys):
    text = "surface bad\nvertex v\nedge e v v\nedge g v v\nface F walk +e +e\n"
    path = write(tmp_path, "bad.txt", text)
    assert main(["validate", path]) == 1
    assert "g" in capsys.readouterr().err


def test_validate_reports_matching_problems(tmp_path, capsys):
    path = tetra_file(tmp_path, frozenset({("v1", "e34")}))
    assert main(["validate", path]) == 1
    assert "endpoint" in capsys.readouterr().err


def test_parse_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "broken.txt", "surface s\nwhat\n")
    assert main(["validate", path]) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.txt")]) == 1
    assert "error" in capsys.readouterr().err


def test_unreadable_input_exit_1(tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    for path in (binary, tmp_path):
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_dvf_flag_rejects_match_lines(tmp_path, capsys):
    path = tetra_file(tmp_path, frozenset({("v1", "e12")}))
    assert main(["validate", path, "--dvf"]) == 1
    assert "line field" in capsys.readouterr().err


def test_vmatch_file_validates_as_vector_field(tmp_path, capsys):
    V = VectorField(support.tetra(), frozenset({("e12", "f123")}))
    path = write(tmp_path, "dvf.txt", emit_vector_field(V))
    assert main(["validate", path]) == 0


# ---- euler and critical ---------------------------------------------------

def test_euler_tetra_exact_line(tmp_path, capsys):
    assert main(["euler", tetra_file(tmp_path)]) == 0
    assert capsys.readouterr().out == "chi=2 index_sum=2 OK\n"


def test_euler_torus(tmp_path, capsys):
    path = write(tmp_path, "q1.txt", emit_complex(support.torus_one()))
    assert main(["euler", path]) == 0
    assert capsys.readouterr().out == "chi=0 index_sum=0 OK\n"


def test_euler_dvf_counts_plain_characteristic(tmp_path, capsys):
    path = write(tmp_path, "q1.txt", emit_complex(support.torus_one()))
    assert main(["euler", path, "--dvf"]) == 0
    assert capsys.readouterr().out == "chi=0 index_sum=0 OK\n"
    path = write(tmp_path, "tetra.txt", emit_complex(support.tetra()))
    assert main(["euler", path, "--dvf"]) == 0
    assert capsys.readouterr().out == "chi=2 index_sum=2 OK\n"


def test_critical_matches_library(tmp_path, capsys):
    L = LineField(support.tetra(), frozenset({("v1", "e12"), ("v2", "e23")}))
    path = write(tmp_path, "field.txt", emit_line_field(L))
    assert main(["critical", path]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert {e["cell"]: e["doubled_index"] for e in entries} == critical_cells(L)
    assert all(set(e) == {"cell", "dim", "doubled_index"} for e in entries)


def test_dvf_indices_are_doubled(tmp_path, capsys):
    path = write(tmp_path, "tetra.txt", emit_complex(support.tetra()))
    assert main(["critical", path, "--dvf"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert {(e["dim"], e["doubled_index"]) for e in entries} == {(0, 2), (1, -2), (2, 2)}
    assert sum(e["doubled_index"] for e in entries) == 2 * support.tetra().euler_characteristic()
    assert main(["ms-graph", path, "--dvf"]) == 0
    dot = capsys.readouterr().out
    assert '"v1" [shape=circle, label="v1 (idx=1)"]' in dot
    assert '"e12" [shape=diamond, label="e12 (idx=-1)"]' in dot
    assert '"f123" [shape=box, label="f123 (idx=1)"]' in dot
    assert main(["ms-graph", path, "--dvf", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["critical"] == entries


# ---- check-acyclic and paths ----------------------------------------------

def test_check_acyclic_matched_loop_witness(tmp_path, capsys):
    L = LineField(support.torus_one(), frozenset({("v", "a")}))
    path = write(tmp_path, "loop.txt", emit_line_field(L))
    assert main(["check-acyclic", path]) == 2
    assert capsys.readouterr().out == "v -a-> v\n"


def test_check_acyclic_clean(tmp_path, capsys):
    assert main(["check-acyclic", tetra_file(tmp_path)]) == 0
    assert capsys.readouterr().out == "acyclic\n"


def test_check_acyclic_dvf(tmp_path, capsys):
    V = VectorField(support.grid_torus(2, 2), frozenset({("h00", "q00"), ("h10", "q10")}))
    path = write(tmp_path, "dvf.txt", emit_vector_field(V))
    assert main(["check-acyclic", path]) == 2
    out = capsys.readouterr().out
    assert "->" in out and out.split()[0] == out.split()[-1]


def test_paths_line_field(tmp_path, capsys):
    L = LineField(support.tetra(), frozenset({("v1", "e12")}))
    path = write(tmp_path, "field.txt", emit_line_field(L))
    assert main(["paths", path, "--from", "v1", "--to", "v2"]) == 0
    assert capsys.readouterr().out == "v1 -e12-> v2\n"
    assert main(["paths", path, "--from", "v1", "--to", "v2", "--count-only"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["paths", path, "--from", "v2", "--to", "v1"]) == 0
    assert capsys.readouterr().out == ""


def test_paths_dvf_count_and_cap(tmp_path, capsys):
    path = write(tmp_path, "dvf.txt", emit_complex(support.tetra()))
    assert main(["paths", path, "--dvf", "--from", "f123", "--to", "e12"]) == 0
    assert capsys.readouterr().out == "e12\n"
    assert main(["paths", path, "--dvf", "--from", "f123", "--to", "e12", "--max", "0"]) == 0
    assert capsys.readouterr().out == "capped at 0\n"
    with pytest.raises(SystemExit) as exited:
        main(["paths", path, "--dvf", "--from", "f123", "--to", "e12", "--max", "-1"])
    assert exited.value.code == 2 and "--max" in capsys.readouterr().err


def test_paths_bad_query_exit_2(tmp_path, capsys):
    assert main(["paths", tetra_file(tmp_path), "--from", "f123", "--to", "v1"]) == 2
    assert "not a vertex" in capsys.readouterr().err


# ---- ms-graph -------------------------------------------------------------

def test_ms_graph_dot_matches_golden(tmp_path, capsys):
    assert main(["ms-graph", tetra_file(tmp_path), "--format", "dot"]) == 0
    assert capsys.readouterr().out == (GOLD / "tetra_empty.dot").read_text()


def test_ms_graph_json_matches_golden(tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["ms-graph", tetra_file(tmp_path), "--format", "json", "-o", out]) == 0
    assert Path(out).read_text() == (GOLD / "tetra_empty.json").read_text()


def test_ms_graph_json_vertices_equal_critical_output(tmp_path, capsys):
    path = tetra_file(tmp_path, frozenset({("v1", "e12"), ("v2", "e23")}))
    assert main(["ms-graph", path, "--format", "json"]) == 0
    graph = parse_graph_json(capsys.readouterr().out)
    assert main(["critical", path]) == 0
    cells = [e["cell"] for e in json.loads(capsys.readouterr().out)]
    assert sorted(graph.vertices) == cells


def test_ms_graph_cyclic_field_exit_2(tmp_path, capsys):
    L = LineField(support.torus_one(), frozenset({("v", "a")}))
    path = write(tmp_path, "loop.txt", emit_line_field(L))
    assert main(["ms-graph", path]) == 2
    assert "closed path" in capsys.readouterr().err


@pytest.mark.parametrize("stem", ["forest_torus", "tree_cotree_torus"])
def test_ms_graph_computes_critical_cells_once(stem, monkeypatch, capsys):
    # The graph and the DOT or JSON writer read one critical set per field.
    from linefields import linefield, vectorfield

    calls = []
    for module, name in ((linefield, "critical_cells"), (vectorfield, "critical_cells_dvf")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda field, f=original: calls.append(field) or f(field)
        )
    path = str(GOLD / "fields" / f"{stem}.txt")
    for fmt in ("dot", "json"):
        calls.clear()
        assert main(["ms-graph", path, "--format", fmt]) == 0
        golden = GOLD / "fields" / f"{stem}.ms-graph.{fmt}.out"
        assert capsys.readouterr().out == golden.read_text()
        assert len(calls) == 1


@pytest.mark.parametrize("stem", ["cyclic_line", "cyclic_vector"])
def test_ms_graph_json_refuses_cyclic_field_before_opening_output(stem, tmp_path, capsys):
    # The JSON report is streamed into the -o file, so the refusal must
    # come before the file is opened.
    out = tmp_path / "report.json"
    argv = ["ms-graph", str(GOLD / "fields" / f"{stem}.txt"), "--format", "json", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("stem,argv,message,witness", [
    ("cyclic_line", ["ms-graph"], "line field has a closed path through v00",
     "v00 -h00-> v01 -h01-> v00"),
    ("cyclic_line", ["simplify"], "line field has a closed path through v00",
     "v00 -h00-> v01 -h01-> v00"),
    ("cyclic_vector", ["paths", "--from", "q01", "--to", "h10"],
     "vector field has a closed X-path through v00", "v00 -h00-> v01 -h01-> v00"),
], ids=["line-ms-graph", "line-simplify", "vector-paths"])
def test_cyclic_refusal_prints_witness(stem, argv, message, witness, capsys):
    path = str(GOLD / "fields" / f"{stem}.txt")
    assert main([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\nwitness: {witness}\n"


# ---- simplify and cancel --------------------------------------------------

def test_simplify_two_pair_tetra(tmp_path, capsys):
    path = tetra_file(tmp_path, frozenset({("v1", "e12"), ("v2", "e23")}))
    out = str(tmp_path / "core.txt")
    table = str(tmp_path / "map.json")
    assert main(["simplify", path, "-o", out, "--map", table]) == 0
    core = parse_line_field(Path(out).read_text())
    assert core.matching == frozenset()
    S = core.complex
    assert (len(S.vertices), len(S.edges), len(S.faces)) == (2, 2, 2)
    mapping = json.loads(Path(table).read_text())
    assert len(mapping) == 14
    assert set(mapping.values()) <= set(c for c, _d in S.cells())


def test_simplify_degenerate_partial_exit_2(tmp_path, capsys):
    path = write(tmp_path, "rp2.txt", emit_complex(support.proj_plane()))
    out = str(tmp_path / "core.txt")
    assert main(["simplify", path, "-o", out, "--map", str(tmp_path / "m.json")]) == 2
    assert "degenerate face: F" in capsys.readouterr().err
    assert parse_line_field(Path(out).read_text()).complex.faces


def test_simplify_stdout_carries_field_then_table(tmp_path, capsys):
    path = tetra_file(tmp_path)
    assert main(["simplify", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("surface tetra\n")
    assert out.rstrip().endswith("}")


def test_cancel_merge_faces(tmp_path, capsys):
    path = tetra_file(tmp_path, frozenset({("v1", "e12"), ("v2", "e23")}))
    out = str(tmp_path / "merged.txt")
    assert main(["cancel", path, "--faces", "f123", "f134", "-o", out,
                 "--map", str(tmp_path / "m.json")]) == 0
    merged = parse_line_field(Path(out).read_text())
    assert len(critical_cells(merged)) == 2
    mapping = json.loads((tmp_path / "m.json").read_text())
    assert mapping["f123"] == mapping["f134"] == "m_f123_f134"


def test_cancel_vertex_face(tmp_path, capsys):
    path = tetra_file(tmp_path, frozenset({("v1", "e12"), ("v2", "e23")}))
    out = str(tmp_path / "cancelled.txt")
    assert main(["cancel", path, "--vertex", "v4", "--face", "f134", "-o", out,
                 "--map", str(tmp_path / "m.json")]) == 0
    after = parse_line_field(Path(out).read_text())
    assert len(critical_cells(after)) == 3
    assert ("v4", "d_f134") in after.matching


def test_cancel_flag_misuse_exit_2(tmp_path, capsys):
    path = tetra_file(tmp_path)
    assert main(["cancel", path]) == 2
    assert main(["cancel", path, "--faces", "f123", "f134", "--vertex", "v4", "--face", "f134"]) == 2


def test_cancel_mixed_modes_exit_2(tmp_path, capsys):
    path = tetra_file(tmp_path, frozenset({("v1", "e12"), ("v2", "e23")}))
    out = str(tmp_path / "out.txt")
    for mix in (["--faces", "f123", "f134", "--vertex", "v4"],
                ["--faces", "f123", "f134", "--face", "f134"],
                ["--vertex", "v4"], ["--face", "f134"]):
        assert main(["cancel", path, *mix, "-o", out]) == 2
        assert capsys.readouterr().err == "error: give either --faces F G or --vertex V --face F\n"
        assert not Path(out).exists()


def test_cancel_no_path_exit_2(tmp_path, capsys):
    path = tetra_file(tmp_path, frozenset({("v1", "e12")}))
    assert main(["cancel", path, "--faces", "f134", "f234"]) == 2
    assert "found 3" in capsys.readouterr().err


# ---- bridge and OFF -------------------------------------------------------

def test_from_dvf_to_dvf_round_trip(tmp_path):
    V = VectorField(support.tetra(), frozenset({("v1", "e12"), ("e23", "f123")}))
    dvf_path = write(tmp_path, "dvf.txt", emit_vector_field(V))
    image_path = str(tmp_path / "image.txt")
    assert main(["from-dvf", dvf_path, "-o", image_path]) == 0
    back = str(tmp_path / "back.txt")
    dual = str(tmp_path / "back_dual.txt")
    assert main(["to-dvf", image_path, "-o", back, "--dual-out", dual]) == 0
    factors = [
        parse_vector_field(Path(back).read_text()),
        parse_vector_field(Path(dual).read_text()),
    ]
    strip = {f"w_{v}": v for v in V.complex.vertices}
    assert any(line_fields_isomorphic(A, V, vertex_map=strip) for A in factors)


def test_to_dvf_validates_the_line_field_once(tmp_path, monkeypatch, capsys):
    # main checks the field with problems(); dlf_to_dvf reads that verdict.
    # Every module of the package that binds the function gets the wrapper.
    from linefields import linefield

    calls = []
    original = linefield.validate_line_field
    for name, module in list(sys.modules.items()):
        if name.startswith("linefields") and vars(module).get("validate_line_field") is original:
            monkeypatch.setattr(
                module, "validate_line_field", lambda L: calls.append(L) or original(L)
            )
    V = VectorField(support.tetra(), frozenset({("v1", "e12"), ("e23", "f123")}))
    path = write(tmp_path, "image.txt", emit_line_field(dvf_to_dlf(V)))
    assert main(["to-dvf", path]) == 0
    assert capsys.readouterr().out.startswith("surface ")
    assert len(calls) == 1


def test_to_dvf_not_in_image_exit_2(tmp_path, capsys):
    assert main(["to-dvf", tetra_file(tmp_path)]) == 2
    assert "radial" in capsys.readouterr().err


def test_from_dvf_empty_field(tmp_path):
    path = write(tmp_path, "bare.txt", emit_complex(support.torus_one()))
    out = str(tmp_path / "image.txt")
    assert main(["from-dvf", path, "-o", out]) == 0
    image = parse_line_field(Path(out).read_text())
    assert image.matching == frozenset()
    assert len(image.complex.faces) == 2


def test_import_off_icosahedron(tmp_path, capsys):
    out = str(tmp_path / "ico.txt")
    assert main(["import-off", str(GOLD / "icosahedron.off"), "-o", out]) == 0
    S = parse_complex(Path(out).read_text())
    assert (len(S.vertices), len(S.edges), len(S.faces)) == (12, 30, 20)
    assert S.validate() == []
    assert main(["euler", out]) == 0
    assert capsys.readouterr().out == "chi=2 index_sum=2 OK\n"


def test_import_off_open_mesh_exit_1(tmp_path, capsys):
    path = write(tmp_path, "open.off", "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert main(["import-off", path]) == 1
    assert capsys.readouterr().err != ""


def test_import_off_non_manifold_exit_1(tmp_path, capsys):
    text = "OFF\n4 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 2 1\n3 0 1 3\n"
    path = write(tmp_path, "bad.off", text)
    assert main(["import-off", path]) == 1
    assert "three faces" in capsys.readouterr().err


# ---- every subcommand refuses invalid input before computing ---------------

# subcommand -> (flags, output files it would write)
SUBCOMMANDS = {
    "validate": ([], []),
    "euler": ([], []),
    "critical": ([], []),
    "check-acyclic": ([], []),
    "paths": (["--from", "v1", "--to", "v2"], []),
    "ms-graph": (["-o", "out.txt"], ["out.txt"]),
    "simplify": (["-o", "out.txt", "--map", "map.json"], ["out.txt", "map.json"]),
    "cancel": (["--faces", "f123", "f134", "-o", "out.txt", "--map", "map.json"],
               ["out.txt", "map.json"]),
    "from-dvf": (["-o", "out.txt"], ["out.txt"]),
    "to-dvf": (["-o", "out.txt", "--dual-out", "dual.txt"], ["out.txt", "dual.txt"]),
    "import-off": (["-o", "out.txt"], ["out.txt"]),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_invalid_input_refused_before_computing(command, tmp_path, capsys):
    if command == "import-off":
        text = support.OPEN_OFF
        problems = parse_off(text).validate()
    else:
        S = support.tetra_without_face()
        text = emit_complex(S)
        problems = S.validate()
    assert problems
    path = write(tmp_path, "input.txt", text)
    flags, outputs = SUBCOMMANDS[command]
    argv = [command, path] + [str(tmp_path / f) if f in outputs else f for f in flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"{p}\n" for p in problems)
    assert not any((tmp_path / f).exists() for f in outputs)


def test_cancel_flags_checked_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    assert main(["cancel", missing, "--faces", "a", "b", "--vertex", "v"]) == 2
    assert capsys.readouterr().err == "error: give either --faces F G or --vertex V --face F\n"


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    # The argparse tree is built once, when the module is imported; a call
    # that rebuilt it would construct one parser and eleven subparsers.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = tetra_file(tmp_path)
    assert main(["validate", path]) == 0
    assert main(["euler", path, "--dvf"]) == 0
    assert built == []
    assert capsys.readouterr().out == "OK\nchi=2 index_sum=2 OK\n"


# Start-up: no dataclass or typing machinery, and the radial bridge and the
# simplification moves only for the subcommands that run them.
START_PROBE = """
import sys
banned = ("dataclasses", "inspect", "typing", "linefields.radial", "linefields.simplify")
import linefields.cli
print(*[m for m in banned if m in sys.modules])
status = linefields.cli.main(["from-dvf", *sys.argv[1:]])
print(status, *[m for m in banned if m in sys.modules])
"""


def test_cli_start_loads_only_what_it_runs(tmp_path):
    # A fresh interpreter under -S, so that `site` preloads nothing.
    V = VectorField(support.tetra(), frozenset({("v1", "e12"), ("e23", "f123")}))
    path = write(tmp_path, "dvf.txt", emit_vector_field(V))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_PROBE, path, "-o", str(tmp_path / "out.txt")],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == ["", "0 linefields.radial"]
