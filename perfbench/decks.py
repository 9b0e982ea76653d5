"""Workload decks: which inputs each workload runs, generated from a seed.

A deck is one pass of jobs.  Its composition (surface kinds, sizes, field
kinds, output formats and kinds of move per size class) is fixed per
workload; the seed draws the random trees, matchings, the cells of each
cancellation move and the job order.  Small jobs are repeated more often than large ones, so
every size class takes a comparable share of a pass and each library call
is seen across at least an 8x range of cell counts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gen
import oracles


def _grid_rows(n, m, combos):
    return [(surface, n, m, field) for surface, field in combos]


_LINE_MIX = [("torus", "bfs"), ("klein", "dfs"), ("rp2", "rand"), ("torus", "forest"),
             ("klein", "rand"), ("rp2", "bfs")]
_VECTOR_MIX = [("torus", "tc"), ("klein", "snake"), ("rp2", "tcdfs"), ("torus", "vrand"),
               ("klein", "tc"), ("torus", "snake"), ("rp2", "tc"), ("klein", "tcdfs")]

# Per workload, its size classes as (surface, n, m, field) rows; sphere
# rows give subdivision levels in n.  Why each workload exists is recorded
# in BENCHMARK.json and METRICS.md.
CLASSES = {
    "analyze": [
        _grid_rows(8, 8, _LINE_MIX + _VECTOR_MIX)
        + _grid_rows(8, 8, _LINE_MIX[:3] + _VECTOR_MIX[:3])
        + [("sphere", 1, 0, "bfs"), ("sphere", 1, 0, "vrand")],
        _grid_rows(12, 12, _LINE_MIX + _VECTOR_MIX),
        _grid_rows(16, 16, _LINE_MIX[:3] + _VECTOR_MIX[:3])
        + [("sphere", 2, 0, "tc"), ("sphere", 2, 0, "dfs")],
        [("klein", 24, 24, "snake"), ("torus", 24, 24, "dfs"), ("rp2", 24, 24, "tc"),
         ("klein", 24, 24, "tc")],
        [("torus", 32, 32, "snake"), ("sphere", 3, 0, "bfs"), ("klein", 32, 32, "dfs")],
    ],
    "simplify": [
        _grid_rows(8, 8, [("torus", "forest"), ("klein", "dfs"), ("rp2", "forest"),
                          ("torus", "bfs"), ("klein", "forest"), ("rp2", "dfs"),
                          ("torus", "dfs"), ("klein", "bfs"), ("rp2", "bfs"),
                          ("torus", "forest")])
        + [("sphere", 1, 0, "bfs"), ("sphere", 1, 0, "forest")],
        _grid_rows(12, 12, [("torus", "dfs"), ("klein", "forest"), ("rp2", "bfs"),
                            ("torus", "forest"), ("klein", "bfs"), ("rp2", "forest")]),
        [("sphere", 2, 0, "forest"), ("klein", 16, 16, "dfs"), ("rp2", 16, 16, "forest")],
        [("torus", 24, 24, "forest")],
    ],
    "radial": [
        _grid_rows(6, 5, [("torus", "tc"), ("klein", "snake"), ("rp2", "tcdfs"),
                          ("torus", "vrand"), ("klein", "tc"), ("rp2", "vrand"),
                          ("torus", "snake"), ("klein", "tcdfs"), ("rp2", "tc"),
                          ("torus", "tcdfs"), ("klein", "vrand"), ("torus", "tc"),
                          ("klein", "snake"), ("rp2", "tc"), ("torus", "tcdfs"),
                          ("klein", "tc")]),
        _grid_rows(8, 8, [("torus", "tcdfs"), ("klein", "snake"), ("rp2", "tc"),
                          ("torus", "tc"), ("klein", "tcdfs")])
        + [("sphere", 1, 0, "tc")],
        [("klein", 11, 11, "tc"), ("rp2", 11, 11, "tc"), ("torus", 11, 11, "snake")],
        [("sphere", 2, 0, "tc")],
    ],
}

# Seconds one pass took when the benchmark was defined (2-vCPU VM,
# Python 3.11).  A run makes round(--seconds / this) passes.
NOMINAL_PASS_S = {"analyze": 6.5, "simplify": 8.5, "radial": 13.0}

# Jobs of the first size class are the CLI sample.
CLI_CLASS = 0


def icosahedron(root: Path, parse_off):
    ico = parse_off((root / "tests" / "golden" / "icosahedron.off").read_text())
    return gen.icosahedron_triangles(ico), len(ico.vertices)


def make_field(mesh, field, rng):
    """(keyword, pairs) for one field kind on one mesh.

    The random matchings ("rand", "vrand") are redrawn until they close a
    path, so each such job is a refusal on every seed; acyclic partial
    fields come from random forests instead.
    """
    cells = _Cells(mesh)
    if field == "bfs":
        return "match", gen.line_field(gen.bfs_tree(mesh, rng.choice(mesh.vertices)))
    if field == "dfs":
        return "match", gen.line_field(gen.dfs_tree(mesh, rng))
    if field == "forest":
        return "match", gen.line_field(gen.random_forest(mesh, rng, keep=0.8))
    if field == "rand":
        return "match", _cyclic(
            lambda: gen.random_line_matching(mesh, rng, keep=0.6),
            lambda p: oracles.has_cycle(oracles.lf_step(cells, p)),
        )
    if field == "tc":
        return "vmatch", gen.tree_cotree(mesh, gen.bfs_tree(mesh, rng.choice(mesh.vertices)))
    if field == "tcdfs":
        return "vmatch", gen.tree_cotree(mesh, gen.dfs_tree(mesh, rng))
    if field == "snake":
        if mesh.snake is None:
            raise ValueError(f"{mesh.name} has no serpentine path")
        return "vmatch", gen.serpentine(mesh)
    if field == "vrand":
        return "vmatch", _cyclic(
            lambda: gen.random_vector_matching(mesh, rng, keep=0.6),
            lambda p: oracles.x_cycle(oracles.x_successors(cells, p)),
        )
    raise ValueError(field)


def _cyclic(draw, is_cyclic, tries=100):
    for _ in range(tries):
        pairs = draw()
        if is_cyclic(pairs):
            return pairs
    raise AssertionError(f"no cyclic matching in {tries} draws")


class _Cells:
    """The attribute view the oracles read, over raw mesh dictionaries."""

    def __init__(self, mesh):
        self.vertices, self.edges, self.faces = mesh.vertices, mesh.edges, mesh.faces


def build(workload: str, seed: int, root: Path, out: Path, library, classes=None) -> list[dict]:
    """Generate, check and write one workload's inputs; return the deck.
    `classes` replaces the workload's size classes (the self-test's tiny
    decks)."""
    rng = random.Random(f"{workload}:{seed}")
    triangles, n_ico = icosahedron(root, library.parse_off)
    meshes: dict[tuple, gen.Mesh] = {}
    jobs = []
    out.mkdir(parents=True, exist_ok=True)
    for size_class, rows in enumerate(classes or CLASSES[workload]):
        for position, (surface, n, m, field) in enumerate(rows):
            key = (surface, n, m)
            if key not in meshes:
                mesh = gen.sphere(triangles, n_ico, n) if surface == "sphere" else gen.grid(surface, n, m)
                gen.check_mesh(mesh, library.construct)
                meshes[key] = mesh
            mesh = meshes[key]
            keyword, pairs = make_field(mesh, field, rng)
            job_id = f"{workload[0]}{len(jobs):02d}"
            job = {
                "id": job_id,
                "mesh": mesh.name,
                "field": field,
                "kind": "line" if keyword == "match" else "vector",
                "cells": mesh.cells,
                "size_class": size_class,
                "cli": size_class == CLI_CLASS,
                "file": f"{job_id}.txt",
                "off": None,
                "probe_edge": min(mesh.edges),
                "sample_edges": sorted(rng.sample(sorted(mesh.edges), 8)),
            }
            if mesh.off is not None:
                job["off"] = f"{job_id}.off"
                (out / job["off"]).write_text(mesh.off)
            _choose_extras(workload, job, mesh, pairs, position % 2, rng)
            (out / job["file"]).write_text(gen.emit(mesh, keyword, pairs))
            jobs.append(job)
    rng.shuffle(jobs)
    (out / "deck.json").write_text(json.dumps(jobs, indent=1))
    return jobs


def longest_query(cells, pairs):
    """(critical edge, critical vertex) joined by the longest vertex path,
    ties to the least edge; None without critical edges.  Fixed by the
    field, so a seed never decides whether a path is long enough to fail."""
    crit = oracles.vf_critical(cells, pairs)
    vertices = set(cells.vertices)
    step = {lo: oracles.other_end(cells.edges, up, lo) for lo, up in pairs if lo in vertices}
    best = None
    for e in sorted(c for c in crit if c in cells.edges):
        for v in cells.edges[e]:
            length, seen = 0, set()
            while v in step and v not in seen:
                seen.add(v)
                v = step[v]
                length += 1
            if v in crit and (best is None or length > best[0]):
                best = (length, e, v)
    return None if best is None else [best[1], best[2]]


def _choose_extras(workload, job, mesh, pairs, parity, rng):
    """Output format, path query or cancellation move.  The format and the
    kind of move alternate along each size class, so every seed runs the
    same mix; the seed picks the cells."""
    cells = _Cells(mesh)
    if workload == "analyze":
        job["fmt"] = ("json", "dot")[parity]
        job["query"] = None
        if job["kind"] == "vector":
            job["query"] = longest_query(cells, pairs)
    elif workload == "simplify":
        order = (("merge", "cancel"), ("cancel", "merge"))[parity]
        job["move"] = None
        for move in order:
            pick = (oracles.pick_merge if move == "merge" else oracles.pick_cancel)(cells, pairs, rng)
            if pick is not None:
                job["move"] = [move, *pick]
                break
        if job["move"] is None:
            raise AssertionError(f"{mesh.name}: no admissible cancellation move")
