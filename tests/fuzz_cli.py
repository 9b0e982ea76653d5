"""Seeded mutation fuzz of the command line.

Mutates the golden inputs and the seed complexes' fields (deletes,
duplicates and swaps lines, replaces tokens, flips signs) and runs every
subcommand on each mutant through `linefields.cli.main`.  Each call must
return 0, 1 or 2, or exit with one of them through argparse; an exception
that escapes `main` fails the run.

    PYTHONPATH=src python tests/fuzz_cli.py
"""

import io
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import support  # noqa: E402
from linefields import LineField, VectorField, emit_line_field, emit_vector_field  # noqa: E402
from linefields.cli import main  # noqa: E402
from sweep import TETRA_OFF, workdir  # noqa: E402

COUNT = 2000  # mutants per run
SEED = 1


def seeds():
    """Texts to mutate: the golden inputs plus fields on the seed complexes."""
    rng = random.Random(0)
    texts = [p.read_text() for p in sorted((HERE / "golden" / "fields").glob("*.txt"))]
    texts += [(HERE / "golden" / "icosahedron.off").read_text(), TETRA_OFF]
    for build in support.all_seed_builders():
        S = build()
        texts.append(emit_line_field(
            LineField(S, support.sample_matching(support.line_field_pairs(S), rng))
        ))
        texts.append(emit_vector_field(
            VectorField(S, support.sample_matching(support.vector_field_pairs(S), rng))
        ))
    return texts


def mutate(text, rng):
    """One to three random edits of `text`."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        tokens = lines[i].split()
        move = rng.randrange(5)
        if move == 0:
            del lines[i]
        elif move == 1:
            lines.insert(j, lines[i])
        elif move == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif move == 3 and tokens:
            others = " ".join(lines).split()
            tokens[rng.randrange(len(tokens))] = rng.choice(others + ["-1", "0", "x"])
            lines[i] = " ".join(tokens)
        elif tokens:
            k = rng.randrange(len(tokens))
            flipped = {"+": "-", "-": "+"}.get(tokens[k][:1])
            tokens[k] = flipped + tokens[k][1:] if flipped else "-" + tokens[k]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def argvs(name, text, rng):
    """Every subcommand on `name`, naming cells that occur in `text`."""
    words = text.split() or ["v"]
    a, b, c = (rng.choice(words) for _ in range(3))
    return [
        ["validate", name], ["euler", name], ["critical", name],
        ["check-acyclic", name, "--dvf"], ["paths", name, "--from", a, "--to", b],
        ["paths", name, "--from", a, "--to", b, "--count-only", "--dvf"],
        ["ms-graph", name, "--format", "json"], ["ms-graph", name, "--dvf"],
        ["simplify", name, "-o", "out.txt", "--map", "map.json"],
        ["cancel", name, "--faces", a, b], ["cancel", name, "--vertex", a, "--face", c],
        ["from-dvf", name], ["to-dvf", name, "-o", "out.txt", "--dual-out", "dual.txt"],
        ["import-off", name],
    ]


def fuzz(count=COUNT, seed=SEED) -> list[str]:
    """Run `count` mutants; return a report line per call that misbehaved."""
    rng = random.Random(seed)
    texts = seeds()
    failures = []
    with workdir([]):
        for n in range(count):
            text = mutate(rng.choice(texts), rng)
            Path("input.txt").write_text(text)
            for argv in argvs("input.txt", text, rng):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse refusing a cell named like a flag
                        code = exc.code
                    except Exception:
                        code = traceback.format_exc(limit=-3)
                if code not in (0, 1, 2):
                    failures.append(f"mutant {n} {' '.join(argv)}: {code}\n{text}")
    return failures


def main_fuzz() -> int:
    failures = fuzz()
    for line in failures:
        print(line)
    print(f"{COUNT} mutants, {len(failures)} calls misbehaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main_fuzz())
