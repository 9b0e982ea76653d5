"""Path dynamics of a line field and its Morse-Smale style decomposition.

An L-path hops from vertex to vertex across matched edges.  Separatrices
connect a critical face to the critical vertices reached by chains starting
at its corners; corridors leave a critical face through an unmatched
boundary occurrence and tunnel through faces with exactly two unmatched
occurrences until they reach a critical face again.  Corridors that never
touch a critical face close up into cycles and mark periodic behaviour.

L-paths here and X-paths in vectorfield.py run on one path engine over a
step relation `options(cell) -> [(label, next cell)]`: `_find_cycle` finds
a closed-path witness, `_maximal_walks` lists walks depth first in option
order, and `_count_walks` counts them with a memoised DP.  Each keeps its
own stack, so path length is bounded by memory, not by recursion depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CyclicFieldError, OperationError

if TYPE_CHECKING:
    from .linefield import LineField


class _PathView:
    """The view LPath and XPath share: the `cells` a path visits, the
    `steps` taken between them, and json(), its keys in the JSON report."""

    def is_trivial(self) -> bool:
        return not self.steps

    def is_closed(self) -> bool:
        return len(self.cells) > 1 and self.cells[0] == self.cells[-1]


@dataclass(frozen=True)
class LPath(_PathView):
    """Vertices v1..vk with witness edges e1..e(k-1); {vi, ei} is matched
    and v(i+1) is the other endpoint of ei (vi itself for a loop)."""

    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    @property
    def cells(self) -> tuple[str, ...]:
        return self.vertices

    @property
    def steps(self) -> tuple[str, ...]:
        return self.edges

    def json(self) -> dict:
        return {"vertices": list(self.vertices), "edges": list(self.edges)}


@dataclass(frozen=True)
class Separatrix:
    """One edge of the topological graph, from `source` down to `target`.

    `occurrence` names the boundary occurrence of the path's first cell on
    the source cell (a walk position, or an endpoint slot for vector
    fields), so parallel separatrices stay distinct.  `path` is the LPath
    or XPath witness.
    """

    source: str
    target: str
    occurrence: int
    path: object


@dataclass(frozen=True)
class TopologicalGraph:
    """Multigraph on the critical cells; edges are separatrices."""

    vertices: tuple[str, ...]
    edges: tuple[Separatrix, ...]

    def multiplicity(self, source: str, target: str) -> int:
        return sum(1 for s in self.edges if s.source == source and s.target == target)


@dataclass(frozen=True)
class Crossing:
    """One step of a corridor: leave through `depart`, an unmatched (face,
    position) occurrence of `edge`, and enter at the edge's other
    occurrence `arrive`."""

    edge: str
    depart: tuple[str, int]
    arrive: tuple[str, int]


@dataclass(frozen=True)
class Corridor:
    start: str
    end: str
    crossings: tuple[Crossing, ...]
    interior: tuple[str, ...]


@dataclass(frozen=True)
class ClosedCorridor:
    """A corridor cycle through faces with two unmatched occurrences,
    touching no critical face."""

    faces: tuple[str, ...]
    crossings: tuple[Crossing, ...]


@dataclass(frozen=True)
class DecompositionReport:
    field: LineField
    graph: TopologicalGraph
    corridors: tuple[Corridor, ...]
    closed_corridors: tuple[ClosedCorridor, ...]
    regions: int
    flags: tuple[str, ...]


# ---- path engine ----------------------------------------------------------


def _find_cycle(roots, options):
    """The first closed walk a depth-first search from `roots`, in order,
    runs into: (cells, labels) from the re-entered cell back to itself,
    or None when the relation is acyclic on everything reachable."""
    state: dict = {}  # 1 while on the current walk, 2 once finished
    for root in roots:
        if root in state:
            continue
        state[root] = 1
        cells, labels = [root], []
        stack = [iter(options(root))]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                state[cells.pop()] = 2
                del labels[-1:]
                stack.pop()
                continue
            label, nxt = step
            seen = state.get(nxt)
            if seen == 1:
                k = cells.index(nxt)
                return tuple(cells[k:]) + (nxt,), tuple(labels[k:]) + (label,)
            if seen is None:
                state[nxt] = 1
                cells.append(nxt)
                labels.append(label)
                stack.append(iter(options(nxt)))
    return None


def _maximal_walks(start, options):
    """Every walk from `start` that steps until a cell with no options, as
    (cells, labels) tuples, depth first in option order.  The relation must
    be acyclic."""
    cells, labels = [start], []
    stack = [iter(options(start))]
    leaf = True
    while stack:
        step = next(stack[-1], None)
        if step is None:
            if leaf:
                yield tuple(cells), tuple(labels)
                leaf = False
            cells.pop()
            del labels[-1:]
            stack.pop()
            continue
        label, nxt = step
        cells.append(nxt)
        labels.append(label)
        stack.append(iter(options(nxt)))
        leaf = True


def _count_walks(options, target):
    """`ways(cell)`: how many maximal walks from `cell` end at `target`,
    memoised across calls.  The relation must be acyclic."""
    memo: dict = {}

    def ways(cell) -> int:
        stack = [cell]
        while stack:
            c = stack[-1]
            if c in memo:
                stack.pop()
                continue
            steps = options(c)
            todo = [nxt for _label, nxt in steps if nxt not in memo]
            if todo:
                stack += todo
                continue
            stack.pop()
            memo[c] = sum(memo[nxt] for _label, nxt in steps) if steps else int(c == target)
        return memo[cell]

    return ways


# ---- L-paths --------------------------------------------------------------


def _step_maps(L: LineField) -> tuple[dict[str, str], dict[str, str]]:
    step = {}
    witness = {}
    for v, e in L.matching:
        tail, head = L.complex.edges[e]
        step[v] = head if v == tail else tail
        witness[v] = e
    return step, witness


def _l_options(L: LineField):
    """The L-path step relation: a matched vertex steps across its edge."""
    step, witness = _step_maps(L)
    steps = {v: ((witness[v], w),) for v, w in step.items()}
    return lambda v: steps.get(v, ())


def closed_l_path(L: LineField) -> LPath | None:
    """A closed L-path, rotated to start at its least vertex, or None."""
    cycle = _find_cycle(sorted(v for v, _e in L.matching), _l_options(L))
    if cycle is None:
        return None
    ring, edges = cycle[0][:-1], cycle[1]
    m = ring.index(min(ring))
    return LPath(ring[m:] + ring[: m + 1], edges[m:] + edges[:m])


def is_acyclic(L: LineField) -> bool:
    return closed_l_path(L) is None


def _require_acyclic(L: LineField):
    closed = closed_l_path(L)
    if closed is not None:
        raise CyclicFieldError(
            "line field has a closed path through " + closed.vertices[0],
            witness=closed,
        )


def l_paths(L: LineField, source: str, target: str) -> list[LPath]:
    """All L-paths from source to target; at most one exists, the trivial
    path counting when source == target."""
    _require_acyclic(L)
    for v in (source, target):
        if v not in L.complex.vertices:
            raise OperationError(f"{v} is not a vertex of the complex")
    cells, edges = next(_maximal_walks(source, _l_options(L)))
    if target not in cells:
        return []
    k = cells.index(target)
    return [LPath(cells[: k + 1], edges[:k])]


# ---- topological graph ----------------------------------------------------


def topological_graph(L: LineField) -> TopologicalGraph:
    """Separatrices from each critical face to the critical vertices its
    corner chains reach.

    One separatrix per unmatched occurrence on the face's walk, witnessed
    by the chain from the vertex where that occurrence starts.  Matched
    occurrences carry none: simplification contracts them out of the walk,
    merging their corners into neighbours, so counting them (or dropping
    anything else) would break the graph-preservation property of
    homotopy_core.  A critical face therefore emits exactly c separatrices.
    """
    _require_acyclic(L)
    S = L.complex
    crit = L.doubled_critical()
    matched = L.matched_edges()
    options = _l_options(L)
    chains: dict[str, LPath] = {}
    edges = []
    for f in sorted(c for c in crit if c in S.faces):
        walk = S.faces[f]
        for i, (_sign, e) in enumerate(walk):
            if e in matched:
                continue
            u = S.corner_vertex(f, i)
            if u not in chains:
                chains[u] = LPath(*next(_maximal_walks(u, options)))
            path = chains[u]
            edges.append(Separatrix(f, path.vertices[-1], i, path))
    return TopologicalGraph(tuple(sorted(crit)), tuple(edges))


# ---- corridors ------------------------------------------------------------


def _corridor_structure(L: LineField):
    """Per-face unmatched counts, the partner map pairing the two
    occurrences of each unmatched edge, the sibling map pairing the two
    unmatched occurrences of each count-2 face, and each face's unmatched
    positions."""
    S = L.complex
    matched = L.matched_edges()
    partner: dict[tuple[str, int], tuple[str, int]] = {}
    for e, occs in S.occurrence_index.items():
        if e in matched:
            continue
        partner[occs[0]] = occs[1]
        partner[occs[1]] = occs[0]
    unmatched_positions = {
        f: [i for i, (_s, e) in enumerate(walk) if e not in matched]
        for f, walk in S.faces.items()
    }
    counts = {f: len(positions) for f, positions in unmatched_positions.items()}
    sibling: dict[tuple[str, int], tuple[str, int]] = {}
    for f, positions in unmatched_positions.items():
        if len(positions) == 2:
            a, b = (f, positions[0]), (f, positions[1])
            sibling[a] = b
            sibling[b] = a
    return counts, partner, sibling, unmatched_positions


def _trace_corridor(S, counts, partner, sibling, start_occ, visited):
    """Cross from `start_occ` and tunnel through count-2 faces, adding each
    occurrence passed to `visited`: a Corridor when a face with another
    count is reached, a ClosedCorridor when the trace is back at its start."""
    crossings = []
    faces = []
    cur = start_occ
    while True:
        visited.add(cur)
        edge = S.faces[cur[0]][cur[1]][1]
        arrive = partner[cur]
        visited.add(arrive)
        crossings.append(Crossing(edge, cur, arrive))
        g = arrive[0]
        if counts[g] != 2:
            return Corridor(start_occ[0], g, tuple(crossings), tuple(faces))
        faces.append(g)
        cur = sibling[arrive]
        if cur == start_occ:
            return ClosedCorridor(tuple(faces), tuple(crossings))


def corridors_from(L: LineField, face: str) -> list[Corridor]:
    """One corridor per unmatched occurrence on the walk of a critical face.

    Each trace crosses to the other occurrence of its edge and keeps
    tunnelling through count-2 faces via their other unmatched occurrence;
    it always terminates on a critical face, possibly the starting one.
    """
    S = L.complex
    if face not in S.faces:
        raise OperationError(f"{face} is not a face of the complex")
    counts, partner, sibling, positions = _corridor_structure(L)
    if counts[face] == 2:
        raise OperationError(f"face {face} is not critical")
    return [
        _trace_corridor(S, counts, partner, sibling, (face, i), set())
        for i in positions[face]
    ]


def _all_corridors(L: LineField) -> tuple[tuple[Corridor, ...], tuple[ClosedCorridor, ...]]:
    """Every corridor, traced from each unmatched occurrence of each
    critical face in face order, and every closed corridor, traced from the
    least occurrence no earlier trace passed.  Needs no acyclicity."""
    S = L.complex
    counts, partner, sibling, positions = _corridor_structure(L)
    visited: set[tuple[str, int]] = set()
    corridors = tuple(
        _trace_corridor(S, counts, partner, sibling, (f, i), visited)
        for f in sorted(S.faces)
        if counts[f] != 2
        for i in positions[f]
    )
    # The membership test runs after every earlier trace has filled
    # `visited`, so each cycle is traced once.
    closed = tuple(
        _trace_corridor(S, counts, partner, sibling, (f, i), visited)
        for f in sorted(S.faces)
        if counts[f] == 2
        for i in positions[f]
        if (f, i) not in visited
    )
    return corridors, closed


def scan_closed_corridors(L: LineField) -> list[ClosedCorridor]:
    """Corridor cycles disjoint from every critical face.

    Works for cyclic fields too; a closed corridor is a property of the
    unmatched occurrence structure alone.
    """
    return list(_all_corridors(L)[1])


def ms_decomposition(L: LineField) -> DecompositionReport:
    """Topological graph, all corridors, and closed corridors of the field.

    Each undirected corridor is traced once from each end; `regions` counts
    them up to direction.  Closed corridors are flagged as periodic
    components.
    """
    graph = topological_graph(L)  # refuses a cyclic field
    corridors, closed = _all_corridors(L)
    undirected = set()
    for corr in corridors:
        key = tuple((c.depart, c.arrive) for c in corr.crossings)
        rkey = tuple((c.arrive, c.depart) for c in reversed(corr.crossings))
        undirected.add(min(key, rkey))
    return DecompositionReport(
        field=L,
        graph=graph,
        corridors=corridors,
        closed_corridors=closed,
        regions=len(undirected),
        flags=("periodic component",) if closed else (),
    )
