"""CLI stdout on non-empty fields of both kinds, pinned byte for byte.

Each input in golden/fields/ runs through every read-only subcommand; the
expected stdout sits next to it as <input>.<run>.out.  The forest fields
cover open corridors (on a torus) and a closed corridor (on a projective
plane); an acyclic field cannot have both, since a closed corridor's band
of faces then fills the whole surface.
"""

from pathlib import Path

import pytest

from linefields.cli import main

FIELDS = Path(__file__).parent / "golden" / "fields"

# input stem -> (paths source, paths target, acyclic)
INPUTS = {
    "forest_torus": ("v21", "v00", True),
    "forest_closed": ("v", "aaam", True),
    "tree_cotree_torus": ("q00", "h01", True),
    "cyclic_line": ("v10", "v11", False),
    "cyclic_vector": ("q01", "h10", False),
}


def runs():
    """(stem, run name, subcommand and flags, exit code) for every golden."""
    for stem, (source, target, acyclic) in INPUTS.items():
        query = ["--from", source, "--to", target]
        for name, args, needs_acyclic in [
            ("ms-graph.dot", ["ms-graph", "--format", "dot"], True),
            ("ms-graph.json", ["ms-graph", "--format", "json"], True),
            ("critical", ["critical"], False),
            ("euler", ["euler"], False),
            ("check-acyclic", ["check-acyclic"], True),
            ("paths", ["paths", *query], True),
            ("paths-count", ["paths", *query, "--count-only"], True),
        ]:
            yield stem, name, args, 2 if needs_acyclic and not acyclic else 0


@pytest.mark.parametrize(
    "stem,name,args,code", list(runs()), ids=[f"{s}.{n}" for s, n, _a, _c in runs()]
)
def test_field_golden(stem, name, args, code, capsys):
    argv = [args[0], str(FIELDS / f"{stem}.txt"), *args[1:]]
    assert main(argv) == code
    assert capsys.readouterr().out == (FIELDS / f"{stem}.{name}.out").read_text()
