"""The package's design rules, stated on the syntax trees of its files.

A rule reads names, calls and literals, never comments or the text of a
docstring, so rewording or reformatting code does not trip one.  CAUGHT holds
code that each rule fails on: for a rule that replaced a CI grep step, code
that the step failed on.  REMOVED is the one list of what left the package:
test_field_protocol.py checks at run time that none is back, and README's
removed-names table names each public one.  PERFBENCH_ONLY lists what the
package keeps only for the frozen benchmark.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ("src/linefields/*.py",)
FIELDS = ("src/linefields/linefield.py", "src/linefields/vectorfield.py")

# By where each lived: "linefields" for a name it no longer exports, a class
# for a method, a module for a function or a local.
REMOVED = {
    "linefields": (
        "HasseDiagram", "closed_l_path", "closed_x_path", "collapse_noncritical_face",
        "complexes_isomorphic", "contract_matched_pair", "count_x_paths", "euler_sum",
        "euler_sum_dvf", "is_acyclic", "is_acyclic_dvf", "isomorphisms", "l_paths",
        "line_fields_isomorphic", "occ_reversed", "occ_text", "parse_graph_json",
        "scan_closed_corridors", "subdivide_edge", "topological_graph", "topological_graph_dvf",
        "unmatched_boundary_count", "vector_fields_isomorphic", "x_paths",
    ),
    "LPath": ("is_trivial", "is_closed", "json"),
    "XPath": ("is_trivial", "is_closed", "json"),
    "LineField": (
        "matched_vertices", "matched_edges", "edge_matched_to", "vertex_matched_to",
        "_edge_of", "_vertex_of",
    ),
    "SurfaceComplex": (
        "cells", "corners", "hasse_diagram", "is_loop", "occ_target", "opposite",
        "_dart_faces", "_slot_cycles",
    ),
    "dynamics.py": (
        "_PathView", "_find_cycle", "_fold_walks", "_build_graph", "rkey", "undirected",
    ),
    "radial.py": ("_radial_classes", "_factors"),
    "simplify.py": ("_root",),
    "surface.py": ("_split_walk", "_merged_walk"),
}
# The private ones: no package module may name them.
PRIVATE = {n for owner, names in REMOVED.items() for n in names
           if n.startswith("_") or owner.endswith(".py")}
# Names that only dynamics._Field defines.
FIELD_BODY = {
    "problems", "doubled_critical", "closed_path", "graph", "_graph", "corridors", "upper_of",
    "lower_of", "_upper_of", "_lower_of", "matched_cells", "edge_matched_to", "vertex_matched_to",
    "_pairs",
}
# The second names of field operations, and a helper one replaced: no
# package module defines a function by one of them.
SECOND_NAMES = (
    "closed_l_path", "closed_x_path", "l_paths", "x_paths", "count_x_paths", "topological_graph",
    "occ_text",
)
# Names the package keeps only because the frozen perfbench/ reads them: each
# has one binding in the package and no other use there, and a perfbench file
# reads each.  The change that frees perfbench of them deletes by this list.
PERFBENCH_ONLY = {
    "closed_l_path", "closed_x_path", "count_x_paths", "topological_graph_dvf",
    "parse_graph_json", "edge_occurrences",
}
# The kept copies the model does not cover: the parser, the JSON report and
# the isomorphism search.
KEPT_REFERENCES = {
    "_reference_parse", "reference_report", "reference_isomorphisms",
    "_reference_vertex_signatures", "_reference_walk_variants",
}
CELL_DICTS = ("edges", "faces", "walks")


@functools.cache
def text(path):
    """A file's text, by its path from the repository root."""
    return (ROOT / path).read_text()


@functools.cache
def parsed(path):
    return ast.parse(text(path), path)


def paths(patterns, needs=((),)):
    """The files matching `patterns` whose text holds every word of one of the
    groups `needs`, but this one, which names what the rules forbid."""
    here = Path(__file__).resolve()
    found = {p.relative_to(ROOT).as_posix()
             for pattern in patterns for p in ROOT.glob(pattern) if p != here}
    return sorted(p for p in found if any(all(w in text(p) for w in group) for group in needs))


def name(node):
    """The name a Name or Attribute node reads or binds; "" for any other node."""
    return getattr(node, "id", getattr(node, "attr", ""))


@functools.cache
def nodes(tree):
    return tuple(ast.walk(tree))


# The fields that hold a name, by node type.
NAME_FIELDS = {
    ast.Name: ("id",), ast.Attribute: ("attr",), ast.arg: ("arg",), ast.keyword: ("arg",),
    ast.FunctionDef: ("name",), ast.AsyncFunctionDef: ("name",), ast.ClassDef: ("name",),
    ast.alias: ("name", "asname"), ast.ImportFrom: ("module",), ast.Constant: ("value",),
}


@functools.cache
def identifiers(tree):
    """(node, name) for each name that `tree` defines or reads, and for each
    string literal that is an identifier, as getattr takes one."""
    return tuple((node, value) for node in nodes(tree) for field in NAME_FIELDS.get(type(node), ())
                 if type(value := getattr(node, field)) is str
                 and (field != "value" or value.isidentifier()))


def named(tree, *names):
    return [n for n, i in identifiers(tree) if i in names]


def naming(tree, *parts):
    """The nodes of the names that contain one of `parts`."""
    return [n for n, i in identifiers(tree) if any(p in i for p in parts)]


def calls(tree, *suffixes):
    """The calls of a callee whose name ends with one of `suffixes`."""
    return [c for c in nodes(tree) if type(c) is ast.Call and name(c.func).endswith(suffixes)]


def defs(tree, *names):
    return [f for f in nodes(tree)
            if type(f) in (ast.FunctionDef, ast.AsyncFunctionDef) and f.name in names]


def classes(tree):
    return [c for c in nodes(tree) if type(c) is ast.ClassDef]


def bound(cls, names):
    """The statements of a class body that define or assign one of `names`."""
    return [s for s in cls.body
            if {getattr(s, "name", None), name(getattr(s, "target", None)),
                *map(name, getattr(s, "targets", ()))} & set(names)]


def rotated_outside_canonical_rotation(tree):
    inside = {id(n) for f in defs(tree, "_canonical_rotation") for n in ast.walk(f)}
    return [n for n, i in identifiers(tree) if i.endswith("_rotated") and id(n) not in inside
            and not (type(n) is ast.FunctionDef and i == "_rotated")]


def dataclass_at_import(tree):
    imports = [s for s in tree.body if type(s) in (ast.Import, ast.ImportFrom)
               and any(i.startswith("dataclasses") for _, i in identifiers(s))]
    decorators = [d for f in nodes(tree) for d in getattr(f, "decorator_list", ())
                  if ast.unparse(d).startswith("dataclass")]
    return imports + decorators + named(tree, "dataclass")


def field_body(tree):
    """A def or a class-level binding of a name that dynamics._Field defines,
    or any binding of graph."""
    class_level = [s for c in classes(tree) for s in bound(c, FIELD_BODY)]
    graphs = [n for n in nodes(tree) if name(n) == "graph" and type(n.ctx) is ast.Store]
    return defs(tree, *FIELD_BODY) + class_level + graphs


def paths_outside_a_field_kind(tree):
    """A def of paths or count_paths outside the body of LineField or
    VectorField."""
    kinds = {id(s) for c in classes(tree) if c.name in ("LineField", "VectorField") for s in c.body}
    return [f for f in defs(tree, "paths", "count_paths") if id(f) not in kinds]


def binds(node):
    """Whether a node of `identifiers` defines its name or assigns to it."""
    return type(node) is ast.FunctionDef or type(getattr(node, "ctx", None)) is ast.Store


def perfbench_only_read(tree):
    """A use of a PERFBENCH_ONLY name other than a binding of it."""
    return [n for n, i in identifiers(tree) if i in PERFBENCH_ONLY and not binds(n)]


def second_scan(tree):
    """A sort of the steps, a lambda sort key, or a call of self._exits."""
    sorts = [c for c in calls(tree, "sorted") if any(naming(a, "_steps") for a in c.args)]
    keys = [k for k in nodes(tree) if type(k) is ast.keyword
            and (k.arg or "").endswith("key") and type(k.value) is ast.Lambda]
    exits = [c for c in calls(tree, "_exits")
             if name(getattr(c.func, "value", None)).endswith("self")]
    return sorts + keys + exits


def sort_of_a_matching(tree):
    """A sorted(...) call whose arguments name a matching, outside the
    binding of _Field._pairs, the one sort each field keeps."""
    pairs = {id(n) for c in classes(tree) if c.name == "_Field"
             for s in bound(c, ("_pairs",)) for n in ast.walk(s)}
    return [c for c in calls(tree, "sorted")
            if id(c) not in pairs and any(naming(a, "matching") for a in c.args)]


def other_slot_by_search(tree):
    """An occurrence_index read from where a call of next starts to the end
    of the call's last line; a read of .opposite or _slot_cycles."""
    reads = naming(tree, "occurrence_index")
    searches = [n for c in calls(tree, "next") for n in reads
                if (c.lineno, c.col_offset) < (n.lineno, n.col_offset) and n.lineno <= c.end_lineno]
    opposites = [n for n in named(tree, "opposite") if type(n) is ast.Attribute]
    return searches + opposites + naming(tree, "_slot_cycles")


def cell_dict_surgery(tree):
    """A pop from a cell dict, or a del of one or of its entries."""
    pops = [c for c in calls(tree, "pop")
            if name(getattr(c.func, "value", None)).endswith(CELL_DICTS)]
    dels = [n for d in nodes(tree) if type(d) is ast.Delete for n in ast.walk(d)
            if name(n).endswith(CELL_DICTS)]
    return pops + dels


def removed_name(tree):
    """A private removed name in any name (`_root` only as a whole name:
    simplify._to_roots contains it), or a class binding a removed method."""
    names = [n for n, i in identifiers(tree)
             if i in PRIVATE or any(p in i for p in PRIVATE - {"_root"})]
    return names + [s for c in classes(tree) for s in bound(c, REMOVED.get(c.name, ()))]


# name: (the files it reads, the nodes of a file's tree that break it[, needs]).
# Parsing every test file takes about as long as the rest of this file, so a
# rule over the tests gives `needs`, groups of words: a file that breaks it
# names every word of a group, and a file that holds no group is not parsed.
RULES = {
    "no_field_kind_dispatch": (PACKAGE, lambda t: named(t, "isinstance", "hasattr")),
    "complexes_built_only_through_from_checked": (PACKAGE, lambda t: calls(t, "SurfaceComplex")),
    "the_moves_read_no_verdict": (
        ("src/linefields/simplify.py",), lambda t: calls(t, "validate") + naming(t, "_problems")),
    "only_canonical_rotation_calls_rotated": (PACKAGE, rotated_outside_canonical_rotation),
    "paths_by_rank": (
        ("src/linefields/dynamics.py", "src/linefields/vectorfield.py"),
        lambda t: [n for n in nodes(t) if type(n) in (ast.Yield, ast.YieldFrom)]),
    "no_dataclasses_at_import": (PACKAGE, dataclass_at_import),
    "no_getattr_hook_on_a_class": (
        PACKAGE, lambda t: [f for f in defs(t, "__getattr__") if f not in t.body]),
    "one_field_body": (FIELDS, field_body),
    "one_scan_per_field": (FIELDS, second_scan),
    "one_sort_per_matching": (PACKAGE, sort_of_a_matching),
    "field_operations_are_the_functions": (PACKAGE, lambda t: defs(t, *SECOND_NAMES)),
    "vector_field_paths_are_the_functions": (PACKAGE, paths_outside_a_field_kind),
    "perfbench_only_names_are_only_bound": (PACKAGE, perfbench_only_read),
    "radial_bridge_reads_darts": (
        ("src/linefields/radial.py",),
        lambda t: [s for s in nodes(t) if type(s) is ast.Constant and s.value in ("in", "out")]
        + naming(t, "occurrence_index", "corner_vertex", "vertex_link_cycles")),
    "cell_dicts_change_only_in_the_kernels": (
        ("src/linefields/simplify.py", "src/linefields/radial.py"), cell_dict_surgery),
    "removed_names_stay_gone": (PACKAGE, removed_name),
    "other_slot_from_occurrence_index": (
        PACKAGE + ("tests/*.py",), other_slot_by_search,
        (("next", "occurrence_index"), ("opposite",), ("_slot_cycles",))),
    "no_reference_copies_outside_the_model": (
        ("tests/test_*.py", "tests/support.py"),
        lambda t: [f for f in nodes(t) if type(f) is ast.FunctionDef
                   and re.match("_?(reference|brute)_", f.name) and f.name not in KEPT_REFERENCES],
        (("reference_",), ("brute_",))),
}


@pytest.mark.parametrize("rule", RULES)
def test_design_rule(rule):
    patterns, offences, *needs = RULES[rule]
    found = [(path, n.lineno, getattr(n, "name", None) or ast.unparse(n)[:60])
             for path in paths(patterns, *needs) for n in offences(parsed(path))]
    assert found == []


# Code each rule fails on, a case for each way it could: for a rule that
# replaced a grep step, what the step failed on.
CAUGHT = [
    ("no_field_kind_dispatch", "isinstance(x, int)"),
    ("no_field_kind_dispatch", "ok = x.hasattr(y)"),
    ("complexes_built_only_through_from_checked", "S = surface.SurfaceComplex(v, e, f)"),
    ("the_moves_read_no_verdict", "T.validate()"),
    ("the_moves_read_no_verdict", "bad = L._pair_problems"),
    ("only_canonical_rotation_calls_rotated", "def f(w):\n    return _rotated(w, k)"),
    ("only_canonical_rotation_calls_rotated", "def is_rotated(w): pass"),
    ("paths_by_rank", "def f():\n    yield x"),
    ("no_dataclasses_at_import", "from dataclasses import field"),
    ("no_dataclasses_at_import", "import dataclasses"),
    ("no_dataclasses_at_import", "@dataclasses.dataclass(frozen=True)\nclass A: pass"),
    ("no_getattr_hook_on_a_class", "class A:\n    def __getattr__(self, n): pass"),
    ("one_field_body", "class A:\n    def corridors(self): pass"),
    ("one_field_body", "self.graph = g"),
    ("one_scan_per_field", "order = sorted(self._steps)"),
    ("one_scan_per_field", "order = sorted(self._steps.items())"),
    ("one_scan_per_field", "min(cells, sort_key=lambda c: c)"),
    ("one_scan_per_field", "exits = self._exits(c)"),
    ("one_sort_per_matching", "for v, e in sorted(self.matching): pass"),
    ("one_sort_per_matching", "order = sorted(L.matching, key=k)"),
    ("one_sort_per_matching", "class A:\n    _pairs = property(lambda f: sorted(f.matching))"),
    ("field_operations_are_the_functions", "def x_paths(V, a, b): pass"),
    ("field_operations_are_the_functions", "def topological_graph(field): pass"),
    ("field_operations_are_the_functions", "def closed_l_path(L): pass"),
    ("vector_field_paths_are_the_functions", "def count_paths(V, a, b): pass"),
    ("vector_field_paths_are_the_functions", "class A:\n    def count_paths(self, a, b): pass"),
    ("perfbench_only_names_are_only_bound", "g = vectorfield.topological_graph_dvf(V)"),
    ("perfbench_only_names_are_only_bound", "occs = S.edge_occurrences(e)"),
    ("perfbench_only_names_are_only_bound", "from .formats import parse_graph_json"),
    ("perfbench_only_names_are_only_bound", '_MODULES = {"dynamics": ("closed_l_path",)}'),
    ("radial_bridge_reads_darts", 'sides = ("in", "out")'),
    ("radial_bridge_reads_darts", "k = S.occurrence_index[e]"),
    ("radial_bridge_reads_darts", "v = S.corner_vertex(f, i)"),
    ("radial_bridge_reads_darts", "links = R.vertex_link_cycles()"),
    ("cell_dicts_change_only_in_the_kernels", "faces.pop(f)"),
    ("cell_dicts_change_only_in_the_kernels", "new_faces.pop(f)"),
    ("cell_dicts_change_only_in_the_kernels", "self.walks.pop(f)"),
    ("cell_dicts_change_only_in_the_kernels", "del edges[e]"),
    ("cell_dicts_change_only_in_the_kernels", "del faces[f][0]"),
    ("removed_names_stay_gone", "r = _root(c)"),
    ("removed_names_stay_gone", "w = surface._split_walks(w, i)"),
    ("removed_names_stay_gone", "e = L._edge_of_vertex[v]"),
    ("removed_names_stay_gone", "workey = 1"),
    ("removed_names_stay_gone", "fs = S._dart_faces"),
    ("removed_names_stay_gone", "class LineField:\n    matched_edges = None"),
    ("other_slot_from_occurrence_index", "o = next(x for x in S.occurrence_index[e] if x != k)"),
    ("other_slot_from_occurrence_index", "a = next(it); b = S.occurrence_index[e]"),
    ("other_slot_from_occurrence_index", "o = S.opposite[k]"),
    ("other_slot_from_occurrence_index", "c = S._slot_cycles()"),
    ("no_reference_copies_outside_the_model", "def brute_paths(L): pass"),
    ("no_reference_copies_outside_the_model", "def _reference_corridors(L): pass"),
]


@pytest.mark.parametrize("rule, code", CAUGHT)
def test_rule_catches_what_its_grep_caught(rule, code):
    assert RULES[rule][1](ast.parse(code))


def test_perfbench_only_names_are_bound_once_and_read_by_perfbench():
    """The other half of perfbench_only_names_are_only_bound: across the
    package each PERFBENCH_ONLY name is bound once, and a name that no
    perfbench file reads any more is a stale entry, to be deleted."""
    bound_at = [i for path in paths(PACKAGE) for n, i in identifiers(parsed(path))
                if i in PERFBENCH_ONLY and binds(n)]
    read = {i for path in paths(("perfbench/*.py",)) for _n, i in identifiers(parsed(path))}
    assert sorted(bound_at) == sorted(PERFBENCH_ONLY)
    assert sorted(PERFBENCH_ONLY - read) == []


def test_one_read_of_an_input_file():
    """cli.main reads and validates every input."""
    cli = parsed("src/linefields/cli.py")
    reads = [n.lineno for n, i in identifiers(cli) if i.endswith("read_text")]
    assert len(reads) == 1, reads


def test_one_result_step_for_the_moves():
    """simplify._moved builds every cell correspondence."""
    steps = [c.lineno for c in calls(parsed("src/linefields/simplify.py"), "dict")
             if ast.unparse(c) == "dict(zip(cells, cells))"]
    assert len(steps) == 1, steps


def test_no_record_rebinds_a_record_method():
    """No subclass of errors._Record binds a name that _Record defines a
    method by (its __init_subclass__ sets __init__, __eq__ and __hash__)."""
    found = [c for path in paths(PACKAGE) for c in classes(parsed(path))]
    records = {"_Record"}
    for _ in found:  # each pass adds the subclasses of the records found so far
        records |= {c.name for c in found if records & set(map(name, c.bases))}
    methods = [f.name for c in found if c.name == "_Record"
               for f in c.body if type(f) is ast.FunctionDef]
    shadows = [(c.name, s.lineno) for c in found if c.name in records - {"_Record"}
               for s in bound(c, methods)]
    assert shadows == [], shadows


def test_readme_names_every_removed_public_name():
    readme = (ROOT / "README.md").read_text()
    table = re.search(r"\| removed name \|.*?\n\n", readme, re.S).group()
    first_column = re.findall(r"^\|([^|]*)", table, re.M)
    public = [n for owner, names in REMOVED.items() if not owner.endswith(".py")
              for n in names if not n.startswith("_")]
    assert [n for n in public if not any(re.search(rf"\b{n}\b", c) for c in first_column)] == []
