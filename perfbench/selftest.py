"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload once on tiny meshes with all checks on, traced and
untraced, including the CLI comparison; then corrupts outputs one at a
time and shows that each check rejects them; finally checks that
BENCHMARK.json names exactly the metrics run.py prints.  Exits 1 when
any of these fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import decks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on the path)
import jobs  # noqa: E402
import oracles  # noqa: E402

TINY = {
    "analyze": [[("torus", 4, 4, "bfs"), ("klein", 4, 4, "snake"), ("rp2", 4, 4, "tc"),
                 ("sphere", 0, 0, "vrand"), ("torus", 4, 4, "rand"), ("klein", 4, 4, "tcdfs"),
                 ("rp2", 4, 3, "dfs"), ("sphere", 0, 0, "tc")]],
    "simplify": [[("torus", 4, 4, "forest"), ("klein", 4, 4, "dfs"), ("rp2", 4, 4, "bfs"),
                  ("sphere", 0, 0, "forest")]],
    "radial": [[("torus", 4, 3, "tc"), ("klein", 4, 3, "snake"), ("rp2", 3, 3, "vrand"),
                ("sphere", 0, 0, "tc")]],
}


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except oracles.OracleError:
        return True
    return False


def flip_first_sign(S):
    """The complex with the first occurrence of its least face reversed."""
    f = min(S.faces)
    (sign, e), *rest = S.faces[f]
    return replace(S, faces={**S.faces, f: ((-sign, e), *rest)})


def corrupted_outcomes(workload, job, outcome):
    """(description, outcome) pairs, each with one wrong output."""
    if workload == "analyze" and outcome["witness"] is None:
        crit = dict(outcome["crit"])
        cell = min(crit)
        crit[cell] += 1
        yield "critical index", {**outcome, "crit": crit}
        if outcome["graph"].edges:
            graph = replace(outcome["graph"], edges=outcome["graph"].edges[1:])
            wrong = {**outcome, "graph": graph}
            if "report" in outcome:
                wrong["report"] = replace(outcome["report"], graph=graph)
            yield "separatrix dropped", wrong
    if workload == "simplify":
        core = outcome["core"]
        mapping = dict(core.correspondence.mapping)
        first = min(oracles.lf_critical(outcome["S"], outcome["field"].matching))
        mapping[first] = min(core.field.complex.edges)
        moved = replace(core, correspondence=replace(core.correspondence, mapping=mapping))
        yield "core correspondence", {**outcome, "core": moved}
    if workload == "radial":
        primal = outcome["primal"]
        bad = jobs.vectorfield.VectorField(flip_first_sign(primal.complex), primal.matching)
        yield "factor walk sign", {**outcome, "primal": bad}


def main() -> int:
    library = run.Library()
    failures = []
    work_root = HERE / ".work" / "selftest"
    for workload in run.WORKLOADS:
        work = work_root / workload
        shutil.rmtree(work, ignore_errors=True)
        deck = decks.build(workload, 7, run.ROOT, work, library, classes=TINY[workload])
        result = worker.run(work, workload, 0.0, trace=True)
        bad = result["rejections"] + [r["id"] for r in result["records"] if r["error"]]
        if bad:
            failures.append(f"{workload}: clean run failed: {bad}")
        cli_lat, cli_failed, cli_rejected = run.run_cli_sample(workload, deck, work)
        if cli_failed or cli_rejected or len(cli_lat) != run.CLI_ROUNDS * len(deck):
            failures.append(f"{workload}: CLI sample failed: {cli_failed + cli_rejected}")
        layers = worker.layer_summary(result["spans"])
        if not any(name.startswith("formats.") for name in layers):
            failures.append(f"{workload}: traced pass recorded no spans")
        print(f"{workload}: {len(result['records'])} jobs and {len(cli_lat)} CLI jobs checked")

        # A flipped walk sign in an emitted text must fail the byte comparison.
        job = next(j for j in sorted(deck, key=lambda j: j["id"]) if j["cli"])
        target = work / "expect" / f"{job['id']}.out"
        if target.exists():
            text = target.read_text()
            flipped = text.replace(" walk +", " walk -", 1) if " walk +" in text else text + " "
            target.write_text(flipped)
            if not run.run_cli_sample(workload, deck, work)[2]:
                failures.append(f"{workload}: corrupted emitted text was accepted")
            else:
                print(f"{workload}: corrupted emitted text rejected")

        # Each corrupted in-process outcome must fail its oracle.
        texts = {name: (work / name).read_text() for j in deck for name in (j["file"], j["off"]) if name}
        tracer = jobs.Tracer()
        for job in deck:
            _secs, outcome, _outputs, error = jobs.run_job(workload, job, texts, tracer)
            if error is not None:
                continue
            for what, wrong in corrupted_outcomes(workload, job, outcome):
                if rejects(jobs.check, workload, job, wrong, Counter()):
                    print(f"{workload}: {job['id']} corrupted {what} rejected")
                else:
                    failures.append(f"{workload}: {job['id']} corrupted {what} accepted")
        shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(work_root, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in spec["end_to_end"]} != set(run.END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"] for m in spec["per_layer"]} != set(run.per_layer_units()):
        failures.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
