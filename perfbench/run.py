"""End-to-end and per-module benchmark of the linefields library and CLI.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, one after another

Run from anywhere inside a checkout: the library is imported from the
checkout's `src/`.  For each workload the run generates its inputs from the
seed (set-up, timed five times, median reported), runs the jobs in a
worker process for about --seconds, checks every output against the
oracles in oracles.py, and times a fixed sample of jobs through
`python -m linefields.cli`.  Every timing is scaled to a nominal host
speed measured beside it (speed.py); the raw figure is printed next to
each metric.  The last stdout line is one JSON object; the exit status is
1 when any oracle rejects an output.

With --trace 1 the worker alternates untraced and traced passes.  The JSON
then holds the per-module metrics: calls, busy (self) seconds and the
log-log exponent of call time against input cells for every function in
FUNCTIONS, the counts in COUNTS, and the tracing overhead.  Spans go to
perfbench/.out/.  See perfbench/METRICS.md for what each metric should
move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import decks  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("analyze", "simplify", "radial")
SETUP_REPEATS = 5
CLI_ROUNDS = 2  # the CLI sample runs twice, so slow spells on the host count less
CLI_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

FUNCTIONS = (
    "surface.construct",
    "surface.split_face",
    "surface.delete_edge_merge_faces",
    "surface.vertex_link_cycles",
    "surface.validate",
    "surface.edge_occurrences",
    "linefield.validate_line_field",
    "linefield.critical_cells",
    "dynamics.closed_l_path",
    "dynamics.ms_decomposition",
    "vectorfield.validate_vector_field",
    "vectorfield.critical_cells_dvf",
    "vectorfield.closed_x_path",
    "vectorfield.topological_graph_dvf",
    "vectorfield.count_x_paths",
    "simplify.homotopy_core",
    "simplify.merge_critical_faces",
    "simplify.cancel_vertex_face",
    "radial.radial_decomposition",
    "radial.is_radial",
    "radial.dvf_to_dlf",
    "radial.dlf_to_dvf",
    "formats.parse_document",
    "formats.parse_off",
    "formats.report_json",
    "formats.graph_dot",
    "formats.emit_line_field",
    "formats.emit_vector_field",
    "cli.startup",
    "cli.import",
)
# Per-layer counts, ratios and tracing overhead: name -> (unit, better)
COUNTS = {
    "dynamics.separatrices": ("count", "higher"),
    "dynamics.corridors": ("count", "higher"),
    "dynamics.refused_ratio": ("ratio", "lower"),
    "simplify.moves": ("count", "higher"),
    "simplify.degenerate_ratio": ("ratio", "lower"),
    "vectorfield.failed": ("count", "lower"),
    "trace.overhead_job_p50_ms": ("ms", "lower"),
    "trace.overhead_cells_per_s": ("1/s", "lower"),
}
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "cli_p50_ms": "ms",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = ("count", "higher")
        out[f"{name}.busy_s"] = ("s", "lower")
        out[f"{name}.exponent"] = ("slope", "lower")
    out.update(COUNTS)
    return out


class Library:
    """The two library entry points set-up needs, from the checkout's src/."""

    def __init__(self):
        if not (ROOT / "src" / "linefields" / "__init__.py").is_file():
            raise SystemExit(f"error: no linefields package under {ROOT / 'src'}")
        sys.path.insert(0, str(ROOT / "src"))
        from linefields import SurfaceComplex, parse_off

        self.parse_off = parse_off
        self.construct = lambda m: SurfaceComplex(
            frozenset(m.vertices), m.edges, m.faces, name=m.name
        )


def setup(workload, seed, work, library):
    """Generate and write the inputs SETUP_REPEATS times: (median scaled
    seconds, median raw seconds, deck)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        before = speed.reference_seconds()
        start = time.perf_counter()
        deck = decks.build(workload, seed, ROOT, work, library)
        raw.append(time.perf_counter() - start)
        ref = (before + speed.reference_seconds()) / 2
        scaled.append(raw[-1] * speed.NOMINAL_REF_S / ref)
    return statistics.median(scaled), statistics.median(raw), deck


def run_worker(work, workload, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(work), workload, str(seconds), str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker failed\n{proc.stderr}")
    return json.loads((work / "result.json").read_text())


# ---- CLI sample -------------------------------------------------------------------


def _cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "linefields.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def _cli_calls(workload, job):
    """(argv, expected exit, {output file: expected output key}) per call."""
    f = job["file"]
    i = job["id"]
    if workload == "analyze":
        return [(["ms-graph", f, "--format", job["fmt"], "-o", f"{i}.cli.out"], None,
                 {f"{i}.cli.out": "out"})]
    if workload == "simplify":
        move, *cells = job["move"]
        picked = ["--faces", *cells] if move == "merge" else ["--vertex", cells[0], "--face", cells[1]]
        return [
            (["simplify", f, "-o", f"{i}.cli.out", "--map", f"{i}.cli.map"], None,
             {f"{i}.cli.out": "out", f"{i}.cli.map": "map"}),
            (["cancel", f, *picked, "-o", f"{i}.cli.mout", "--map", f"{i}.cli.mmap"], "0",
             {f"{i}.cli.mout": "move_out", f"{i}.cli.mmap": "move_map"}),
        ]
    return [
        (["from-dvf", f, "-o", f"{i}.cli.dlf"], "0", {f"{i}.cli.dlf": "out"}),
        (["to-dvf", f"{i}.cli.dlf", "-o", f"{i}.cli.a", "--dual-out", f"{i}.cli.b"], "0",
         {f"{i}.cli.a": "primal", f"{i}.cli.b": "dual"}),
    ]


def run_cli_sample(workload, deck, work):
    """Time each sampled job through the CLI and compare its outputs byte
    for byte with the in-process run.  Returns ((raw ms, reference seconds)
    per job, with inf ms for a failed job; failures; rejections)."""
    latencies, failures, rejections = [], [], []
    expect = work / "expect"
    sample = [j for j in sorted(deck, key=lambda j: j["id"]) if j["cli"]]
    for job in sample * CLI_ROUNDS:
        ref = speed.reference_seconds()
        total = 0.0
        failed = None
        for args, want_exit, files in _cli_calls(workload, job):
            if want_exit is None:
                want_exit = (expect / f"{job['id']}.exit").read_text()
            seconds, proc = _cli(args, work)
            total += seconds
            if "Traceback" in proc.stderr:
                failed = proc.stderr.strip().splitlines()[-1].split(":")[0]
                break
            if str(proc.returncode) != want_exit:
                rejections.append(f"{job['id']} CLI {args[0]}: exit {proc.returncode}, expected {want_exit}")
                break
            for name, key in files.items():
                if want_exit == "2" and key == "out" and workload == "analyze":
                    continue
                got = (work / name).read_bytes()
                if got != (expect / f"{job['id']}.{key}").read_bytes():
                    rejections.append(f"{job['id']} CLI {args[0]}: {key} differs from in-process")
        if failed is not None:
            failures.append(f"{job['id']} CLI: {failed}")
        latencies.append((math.inf if failed else total * 1000, ref))
    return latencies, failures, rejections


def cli_layers(repeats=7) -> dict[str, dict]:
    """cli.startup: `python -c pass`; cli.import: importing linefields.cli,
    timed inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    startup, imports = [], []
    probe = "import time; t = time.perf_counter(); import linefields.cli; print(time.perf_counter() - t)"
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        startup.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return {
        "cli.startup": {"calls": repeats, "busy_s": sum(startup), "exponent": 0.0},
        "cli.import": {"calls": repeats, "busy_s": sum(imports), "exponent": 0.0},
    }


# ---- metrics ------------------------------------------------------------------------


def tail(latencies):
    """The highest percentile with at least ten jobs beyond it, as
    (value, percentile, jobs)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def scale(records):
    """Add each record's time scaled to the nominal host speed."""
    for r, f in zip(records, speed.factors([r["ref"] for r in records])):
        r["scaled"] = r["seconds"] * f


def job_stats(records, key="scaled"):
    """(latencies in ms, failed ones inf; completed cells per second)."""
    lat = [math.inf if r["error"] else r[key] * 1000 for r in records]
    busy = sum(r[key] for r in records)
    done = sum(r["cells"] for r in records if not r["error"])
    return lat, done / busy


def end_to_end(setup, result, cli):
    """The end-to-end metrics, scaled, and a note per metric with the raw
    figure."""
    records = [r for r in result["records"] if not r["traced"]]
    cli_lat, cli_failures, _ = cli
    cli_raw = [ms for ms, _ref in cli_lat]
    cli_scaled = [ms * f for ms, f in zip(cli_raw, speed.factors([ref for _ms, ref in cli_lat]))]
    failed = sum(1 for r in records if r["error"]) + len(cli_failures)
    attempted = len(records) + len(cli_lat)
    lat, cells_per_s = job_stats(records)
    raw_lat, raw_cells_per_s = job_stats(records, "seconds")
    tail_ms, pct, n = tail(lat)
    metrics = {
        "setup_s": setup[0],
        "cells_per_s": cells_per_s,
        "job_p50_ms": statistics.median(lat),
        "job_tail_ms": tail_ms,
        "cli_p50_ms": statistics.median(cli_scaled),
        "completed_ratio": 1 - failed / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"raw {setup[1]:.4g}",
        "cells_per_s": f"raw {raw_cells_per_s:.5g}",
        "job_p50_ms": f"raw {statistics.median(raw_lat):.4g}",
        "job_tail_ms": f"raw {tail(raw_lat)[0]:.4g}; p{pct:.1f} over {n} jobs",
        "cli_p50_ms": f"raw {statistics.median(cli_raw):.4g}; {len(cli_lat)} CLI jobs",
        "completed_ratio": f"failed_ratio {failed / attempted:.4f} = {failed}/{attempted}",
    }
    return metrics, notes, attempted, failed


def per_layer(result, cli_startup):
    layers = dict(result["layers"])
    layers.update(cli_startup)
    metrics = {}
    for name in FUNCTIONS:
        row = layers.get(name, {"calls": 0, "busy_s": 0.0, "exponent": 0.0})
        for key in ("calls", "busy_s", "exponent"):
            metrics[f"{name}.{key}"] = row[key]
    c = result["counts"]
    metrics["dynamics.separatrices"] = c.get("dynamics.separatrices", 0)
    metrics["dynamics.corridors"] = c.get("dynamics.corridors", 0)
    metrics["dynamics.refused_ratio"] = c.get("dynamics.refused", 0) / max(c.get("dynamics.decompositions", 0), 1)
    metrics["simplify.moves"] = c.get("simplify.moves", 0)
    metrics["simplify.degenerate_ratio"] = c.get("simplify.degenerate", 0) / max(c.get("simplify.jobs", 0), 1)
    metrics["vectorfield.failed"] = c.get("vectorfield.failed", 0)
    plain_lat, plain_rate = job_stats([r for r in result["records"] if not r["traced"]])
    traced_lat, traced_rate = job_stats([r for r in result["records"] if r["traced"]])
    metrics["trace.overhead_job_p50_ms"] = statistics.median(traced_lat) - statistics.median(plain_lat)
    metrics["trace.overhead_cells_per_s"] = plain_rate - traced_rate
    return metrics


def run_workload(workload, seed, seconds, trace, library):
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_times = setup(workload, seed, work, library)
        deck = setup_times[2]
        result = run_worker(work, workload, seconds, trace)
        scale(result["records"])
        rejections = list(result["rejections"])
        failures = [f"{r['id']}: {r['error']}" for r in result["records"] if r["error"]]
        if trace:
            (HERE / ".out").mkdir(exist_ok=True)
            spans_file = HERE / ".out" / f"trace-{workload}-{seed}.json"
            keys = ("name", "start", "end", "parent", "job", "cells")
            spans_file.write_text(json.dumps([dict(zip(keys, s)) for s in result["spans"]]))
            metrics = per_layer(result, cli_layers())
            notes = {}
            attempted = len(result["records"])
            failed = len(failures)
        else:
            cli = run_cli_sample(workload, deck, work)
            rejections += cli[2]
            failures += cli[1]
            metrics, notes, attempted, failed = end_to_end(setup_times, result, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(workload, seed, result, metrics, notes, failures, rejections, trace)
    return {"correct": not rejections, "attempted": attempted, "failed": failed, "metrics": metrics}


def job_spread(records):
    """(max - min) / min of each completed job's repeated scaled latencies."""
    by_job: dict[str, list[float]] = {}
    for r in records:
        if not r["error"] and not r["traced"]:
            by_job.setdefault(r["id"], []).append(r["scaled"])
    return [(max(s) - min(s)) / min(s) for s in by_job.values() if len(s) > 1]


def report(workload, seed, result, metrics, notes, failures, rejections, trace):
    units = per_layer_units() if trace else {k: (u, None) for k, u in END_TO_END.items()}
    passes = " ".join(f"{s:.2f}" for s in result["pass_seconds"])
    print(f"# {workload} seed={seed}: {len(result['records'])} jobs; passes of {passes} s")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload}.{name} = {value:.6g} {units[name][0]}{note}")
    spread = job_spread(result["records"])
    if spread:
        print(f"# per-job spread across passes, (max - min) / min: median {statistics.median(spread):.1%},"
              f" max {max(spread):.1%} over {len(spread)} jobs")
    kinds: dict[str, int] = {}
    for f in failures:
        kinds[f.rsplit(": ", 1)[-1]] = kinds.get(f.rsplit(": ", 1)[-1], 0) + 1
    if failures:
        print(f"# failed: {len(failures)} " + ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items())))
        for f in sorted(set(failures)):
            print(f"#   {f}")
    for r in rejections:
        print(f"# REJECTED {r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    library = Library()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, library) for w in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    units = per_layer_units() if args.trace else {k: (u, None) for k, u in END_TO_END.items()}
    final["metrics"] = {
        k: {"value": v, "unit": units[k.split(".", 1)[1] if len(names) > 1 else k][0]}
        for k, v in final["metrics"].items()
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
