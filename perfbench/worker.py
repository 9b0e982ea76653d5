"""Run one workload's deck in a process of its own and write a JSON result.

    python3 perfbench/worker.py WORKDIR WORKLOAD SECONDS TRACE

The process does nothing but read the generated inputs and run jobs, so
its peak RSS is that of the jobs, with set-up excluded.  One client runs
jobs back to back (a closed loop) in whole passes over the deck, after one
untimed run of the smallest jobs.  SECONDS sets the number of passes
through the nominal pass time of the workload (decks.NOMINAL_PASS_S), so
both sides of a comparison run the same jobs the same number of times.
With TRACE 1, untraced and traced passes alternate, starting untraced, and
at least one of each runs.  Each job is preceded by a run of
speed.reference_work, recorded beside its time.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import decks  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
from linefields.errors import OperationError  # noqa: E402


def run(work: Path, workload: str, seconds: float, trace: bool) -> dict:
    deck = json.loads((work / "deck.json").read_text())
    texts = {}
    for job in deck:
        for name in (job["file"], job["off"]):
            if name is not None:
                texts[name] = (work / name).read_text()
    expect = work / "expect"
    expect.mkdir(exist_ok=True)
    tracer = jobs.Tracer()
    for job in deck:  # warm-up: first-call costs stay out of the timed passes
        if job["size_class"] == 0:
            jobs.run_job(workload, job, texts, tracer)
    counts: Counter = Counter()
    records = []
    rejections = []
    n_passes = max(1, round(seconds / decks.NOMINAL_PASS_S[workload]))
    if trace:
        n_passes = max(2, n_passes)
    pass_times = []
    for passes in range(n_passes):
        traced = trace and passes % 2 == 1
        tracer.enabled = traced
        pass_start = time.perf_counter()
        for job in deck:
            gc.collect()  # each job starts without the garbage of the one before
            ref = speed.reference_seconds()
            secs, outcome, outputs, error = jobs.run_job(workload, job, texts, tracer)
            record = {"id": job["id"], "pass": passes, "traced": traced, "seconds": secs,
                      "ref": ref, "cells": job["cells"], "error": None}
            if error is not None:
                record["error"] = type(error).__name__
                if traced and job["kind"] == "vector":
                    counts["vectorfield.failed"] += 1
                if isinstance(error, OperationError):
                    rejections.append(f"{job['id']} {job['mesh']}: refused: {error}")
            else:
                try:
                    jobs.check(workload, job, outcome, counts if traced else Counter())
                except oracles.OracleError as exc:
                    rejections.append(f"{job['id']} {job['mesh']}: {exc}")
                if traced:
                    with tracer.span("probe", job["cells"]):
                        jobs.probe(workload, job, outcome, texts, tracer)
                if passes == 0 and job["cli"]:
                    for key, text in outputs.items():
                        (expect / f"{job['id']}.{key}").write_text(text)
            records.append(record)
        pass_times.append(time.perf_counter() - pass_start)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "records": records,
        "rejections": rejections,
        "pass_seconds": pass_times,
        "peak_rss_mb": peak_kb / 1024,
        "counts": dict(counts),
    }
    if trace:
        result["spans"] = [s for s in tracer.spans if s is not None]
    return result


def layer_summary(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds (self time) and the log-log slope
    of self time against input cells."""
    child_time = Counter()
    for name, start, end, parent, _job, _cells in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name: dict[str, list[tuple[int, float]]] = {}
    for index, (name, start, end, _parent, _job, cells) in enumerate(spans):
        by_name.setdefault(name, []).append((cells, end - start - child_time[index]))
    return {
        name: {"calls": len(rows), "busy_s": sum(s for _c, s in rows), "exponent": slope(rows)}
        for name, rows in by_name.items()
    }


def slope(rows) -> float:
    pts = [(math.log(c), math.log(s)) for c, s in rows if c > 0 and s > 0]
    if len({x for x, _y in pts}) < 2:
        return 0.0
    mx = sum(x for x, _y in pts) / len(pts)
    my = sum(y for _x, y in pts) / len(pts)
    var = sum((x - mx) ** 2 for x, _y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / var


def main(argv) -> int:
    work, workload, seconds, trace = Path(argv[1]), argv[2], float(argv[3]), argv[4] == "1"
    result = run(work, workload, seconds, trace)
    if trace:
        result["layers"] = layer_summary(result["spans"])
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
