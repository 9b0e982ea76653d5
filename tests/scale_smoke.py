"""Scale smoke check of `ms-graph` on a long-chain field.

    PYTHONPATH=src python tests/scale_smoke.py

Builds the snake line field on a 48x48 grid torus (one gradient chain
through all 2 304 vertices, so the separatrix paths hold about 221 000
cells) and runs `ms-graph` as two child processes, DOT first, then JSON,
each writing with -o.  It checks that the JSON child's peak RSS is at most
twice the DOT child's (the JSON report is streamed, so its memory must not
grow with the paths it prints) and that the DOT has one arc per
separatrix.  It times nothing.  Standard library only.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import support  # noqa: E402
from linefields import emit_line_field  # noqa: E402

SIZE = 48


def separatrix_count(L) -> int:
    """Unmatched occurrences on the walks of critical faces, counted from
    the matching alone: each one starts one separatrix."""
    matched = {e for _v, e in L.matching}
    total = 0
    for walk in L.complex.faces.values():
        unmatched = sum(e not in matched for _s, e in walk)
        if unmatched != 2:
            total += unmatched
    return total


def peak_rss_kb(argv, env) -> int:
    """Run one child to completion; the largest peak RSS of any child so far."""
    subprocess.run(argv, env=env, check=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main() -> int:
    L = support.serpentine_line_field(SIZE, SIZE)
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        field = Path(tmp, "snake.txt")
        field.write_text(emit_line_field(L))
        ms_graph = [sys.executable, "-m", "linefields.cli", "ms-graph", str(field)]
        dot, report = Path(tmp, "graph.dot"), Path(tmp, "report.json")
        # RUSAGE_CHILDREN holds the maximum over finished children, so the
        # DOT child runs first and the second reading bounds the JSON child.
        dot_kb = peak_rss_kb(ms_graph + ["-o", str(dot)], env)
        both_kb = peak_rss_kb(ms_graph + ["--format", "json", "-o", str(report)], env)
        arcs = sum(" -> " in line for line in dot.read_text().splitlines())
        with report.open() as fp:
            listed = sum(line.startswith('      "source": ') for line in fp)
        report_mb = report.stat().st_size / 1e6
    want = separatrix_count(L)
    print(
        f"{SIZE}x{SIZE} snake: {want} separatrices, {report_mb:.1f} MB of JSON;"
        f" peak RSS DOT {dot_kb / 1024:.0f} MB, DOT and JSON {both_kb / 1024:.0f} MB"
    )
    failures = []
    if both_kb > 2 * dot_kb:
        failures.append(f"JSON peak RSS {both_kb} kB is over twice DOT's {dot_kb} kB")
    if arcs != want:
        failures.append(f"DOT has {arcs} arcs for {want} separatrices")
    if listed != want:
        failures.append(f"JSON lists {listed} separatrices for {want}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
