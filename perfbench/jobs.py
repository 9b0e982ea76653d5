"""Job pipelines, their oracles, and the traced probes of single modules.

Each pipeline is what the matching CLI subcommand does, called in-process
through the library's public functions.  Every library call goes through
Tracer.span, which records nothing unless tracing is on, so traced and
untraced passes run the same code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from linefields import dynamics, formats, linefield, radial, simplify, surface, vectorfield

import oracles


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, job id, cells)."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple | None] = []
        self._open: list[int] = []
        self.job = None

    @contextmanager
    def span(self, name: str, cells: int = 0):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.job, cells)


def _mapping_text(correspondence) -> str:
    return json.dumps(dict(sorted(correspondence.mapping.items())), indent=2) + "\n"


# ---- pipelines ----------------------------------------------------------------
# Each returns (outcome, outputs): outcome feeds the oracle, outputs maps an
# output name to the text the CLI must reproduce byte for byte.


def analyze(job, text, t):
    n = job["cells"]
    with t.span("formats.parse_document", n):
        doc = formats.parse_document(text)
    S = doc.complex
    with t.span("surface.validate", n):
        problems = S.validate()
    out = {"S": S}
    if job["kind"] == "line":
        L = linefield.LineField(S, doc.match)
        with t.span("linefield.validate_line_field", n):
            problems += linefield.validate_line_field(L)
        with t.span("linefield.critical_cells", n):
            crit = linefield.critical_cells(L)
        with t.span("dynamics.closed_l_path", n):
            witness = dynamics.closed_l_path(L)
        out.update(field=L, problems=problems, crit=crit, witness=witness)
        if witness is not None:
            return out, {"exit": "2"}
        with t.span("dynamics.ms_decomposition", n):
            out["report"] = dynamics.ms_decomposition(L)
        out["graph"] = out["report"].graph
    else:
        V = vectorfield.VectorField(S, doc.vmatch)
        with t.span("vectorfield.validate_vector_field", n):
            problems += vectorfield.validate_vector_field(V)
        with t.span("vectorfield.critical_cells_dvf", n):
            crit = vectorfield.critical_cells_dvf(V)
        with t.span("vectorfield.closed_x_path", n):
            witness = vectorfield.closed_x_path(V)
        out.update(field=V, problems=problems, crit=crit, witness=witness)
        if witness is not None:
            return out, {"exit": "2"}
        with t.span("vectorfield.topological_graph_dvf", n):
            out["graph"] = vectorfield.topological_graph_dvf(V)
        if job["query"] is not None:
            with t.span("vectorfield.count_x_paths", n):
                out["count"] = vectorfield.count_x_paths(V, *job["query"])
    if job["fmt"] == "json":
        with t.span("formats.report_json", n):
            emitted = formats.report_json(out["field"])
    else:
        with t.span("formats.graph_dot", n):
            emitted = formats.graph_dot(out["field"])
    out["text"] = emitted
    return out, {"exit": "0", "out": emitted}


def simplify_job(job, text, t):
    n = job["cells"]
    with t.span("formats.parse_document", n):
        doc = formats.parse_document(text)
    L = linefield.LineField(doc.complex, doc.match)
    with t.span("surface.validate", n):
        problems = L.complex.validate()
    with t.span("linefield.validate_line_field", n):
        problems += linefield.validate_line_field(L)
    with t.span("simplify.homotopy_core", n):
        core = simplify.homotopy_core(L)
    with t.span("formats.emit_line_field", n):
        core_text = formats.emit_line_field(core.field)
    move, *cells = job["move"]
    if move == "merge":
        with t.span("simplify.merge_critical_faces", n):
            moved, correspondence = simplify.merge_critical_faces(L, *cells)
    else:
        with t.span("simplify.cancel_vertex_face", n):
            moved, correspondence = simplify.cancel_vertex_face(L, *cells)
    with t.span("formats.emit_line_field", n):
        moved_text = formats.emit_line_field(moved)
    outcome = {"S": L.complex, "field": L, "problems": problems, "core": core,
               "moved": moved, "correspondence": correspondence}
    outputs = {
        "exit": "2" if core.degenerate_face is not None else "0",
        "out": core_text,
        "map": _mapping_text(core.correspondence),
        "move_out": moved_text,
        "move_map": _mapping_text(correspondence),
    }
    return outcome, outputs


def radial_job(job, text, t):
    n = job["cells"]
    with t.span("formats.parse_document", n):
        doc = formats.parse_document(text)
    V = vectorfield.VectorField(doc.complex, doc.vmatch)
    with t.span("surface.validate", n):
        problems = V.complex.validate()
    with t.span("vectorfield.validate_vector_field", n):
        problems += vectorfield.validate_vector_field(V)
    with t.span("radial.dvf_to_dlf", n):
        L = radial.dvf_to_dlf(V)
    with t.span("formats.emit_line_field", n):
        line_text = formats.emit_line_field(L)
    with t.span("radial.dlf_to_dvf", n):
        primal, dual = radial.dlf_to_dvf(L)
    with t.span("formats.emit_vector_field", n):
        primal_text = formats.emit_vector_field(primal)
    with t.span("formats.emit_vector_field", n):
        dual_text = formats.emit_vector_field(dual)
    outcome = {"S": V.complex, "field": V, "problems": problems, "line": L,
               "primal": primal, "dual": dual}
    return outcome, {"exit": "0", "out": line_text, "primal": primal_text, "dual": dual_text}


PIPELINES = {"analyze": analyze, "simplify": simplify_job, "radial": radial_job}


# ---- oracles ------------------------------------------------------------------


def check(workload, job, outcome, counts):
    """Raise OracleError on a wrong output; tally the per-layer counts."""
    S, field = outcome["S"], outcome["field"]
    pairs = field.matching
    oracles.require(outcome["problems"] == [], f"validation reported {outcome['problems'][:1]}")
    if workload == "analyze":
        _check_analyze(job, S, pairs, outcome, counts)
    elif workload == "simplify":
        oracles.check_core(S, pairs, outcome["core"])
        move, *cells = job["move"]
        checker = oracles.check_merge if move == "merge" else oracles.check_cancel
        checker(S, pairs, *cells, outcome["moved"], outcome["correspondence"])
        core = outcome["core"]
        counts["simplify.jobs"] += 1
        counts["simplify.moves"] += len(pairs) + len(S.faces) - len(core.field.complex.faces) + 1
        counts["simplify.degenerate"] += core.degenerate_face is not None
    else:
        oracles.check_radial_line_field(S, pairs, outcome["line"])
        oracles.check_factors(S, pairs, outcome["primal"], outcome["dual"])


def _check_analyze(job, S, pairs, outcome, counts):
    line = job["kind"] == "line"
    mine = oracles.lf_critical(S, pairs) if line else oracles.vf_critical(S, pairs)
    oracles.require(outcome["crit"] == mine, "critical cells differ from the oracle")
    want_sum = 2 * oracles.chi(S) if line else oracles.chi(S)
    oracles.require(sum(mine.values()) == want_sum, "Euler sum differs from the characteristic")
    if line:
        counts["dynamics.decompositions"] += 1
        cyclic = oracles.has_cycle(oracles.lf_step(S, pairs))
    else:
        succ = oracles.x_successors(S, pairs)
        cyclic = oracles.x_cycle(succ)
    witness = outcome["witness"]
    oracles.require(cyclic == (witness is not None), "acyclicity verdict differs from the oracle")
    if witness is not None:
        (oracles.check_l_witness if line else oracles.check_x_witness)(S, pairs, witness)
        counts["dynamics.refused"] += line
        return
    graph = outcome["graph"]
    if line:
        report = outcome["report"]
        oracles.check_decomposition(S, pairs, mine, report)
        counts["dynamics.separatrices"] += len(report.graph.edges)
        counts["dynamics.corridors"] += len(report.corridors)
    else:
        oracles.require(graph.vertices == tuple(sorted(mine)), "graph vertices differ")
        total = oracles.separatrix_total(S, succ, mine)
        oracles.require(len(graph.edges) == total, f"{len(graph.edges)} separatrices, DP {total}")
        if job["query"] is not None:
            want = oracles.x_count(S, succ, *job["query"])
            oracles.require(outcome["count"] == want, f"count_x_paths {outcome['count']}, DP {want}")
    oracles.check_graph_text(job["fmt"], outcome["text"], graph, formats.parse_graph_json)


# ---- probes of single modules (traced passes only) -----------------------------


def probe(workload, job, outcome, texts, t):
    """One call each of the surface functions no pipeline step isolates, on
    the job's own complex; radial building blocks on radial jobs."""
    S = outcome["S"]
    n = job["cells"]
    with t.span("surface.construct", n):
        surface.SurfaceComplex(S.vertices, S.edges, S.faces, name=S.name)
    face = min(S.faces)
    with t.span("surface.split_face", n):
        surface.split_face(S, face, 0, 2, "probe_d", "probe_a", "probe_b")
    with t.span("surface.delete_edge_merge_faces", n):
        surface.delete_edge_merge_faces(S, job["probe_edge"], "probe_m")
    with t.span("surface.vertex_link_cycles", n):
        S.vertex_link_cycles()
    with t.span("surface.edge_occurrences", n):
        for e in job["sample_edges"]:
            S.edge_occurrences(e)
    if job["off"] is not None:
        with t.span("formats.parse_off", n):
            formats.parse_off(texts[job["off"]])
    if workload == "radial":
        with t.span("radial.radial_decomposition", n):
            R = radial.radial_decomposition(S)
        with t.span("radial.is_radial", n):
            radial.is_radial(R.complex)


def run_job(workload, job, texts, t):
    """Run one pipeline: (seconds, outcome, outputs, error).

    Every refusal a pipeline can meet was ruled out by its set-up or by an
    earlier acyclicity check, so an OperationError is a wrong output.  Any
    other exception, such as RecursionError, is a failed job; both are
    recorded with their class and never dropped.
    """
    t.job = job["id"]
    start = time.perf_counter()
    try:
        with t.span("job", job["cells"]):
            outcome, outputs = PIPELINES[workload](job, texts[job["file"]], t)
    except Exception as exc:
        return time.perf_counter() - start, None, None, exc
    return time.perf_counter() - start, outcome, outputs, None
