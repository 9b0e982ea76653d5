"""Path dynamics of a line field and its Morse-Smale style decomposition.

An L-path hops from vertex to vertex across matched edges.  Separatrices
connect a critical face to the critical vertices reached by chains starting
at its corners; corridors leave a critical face through an unmatched
boundary occurrence and tunnel through faces with exactly two unmatched
occurrences until they reach a critical face again.  Corridors that never
touch a critical face close up into cycles and mark periodic behaviour.

Both field kinds build their step table `{cell: ((label, next), ...)}`
once, as `_steps`, and share one path engine: `_find_cycle` finds a
closed-path witness, `_maximal_walks` lists walks depth first in step
order, and `_count_walks` counts them with a memoised DP; each keeps its
own stack, so path length is bounded by memory, not by recursion depth.

The corridor tracer builds nothing per call.  It reads each face's count
and the sibling of an unmatched occurrence from the field's `_unmatched`
positions, and each crossing from the complex's `opposite` slot pairing.
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


def _find_cycle(roots, steps):
    """The first closed walk a depth-first search from `roots`, in order,
    runs into: (cells, labels) from the re-entered cell back to itself,
    or None when the relation is acyclic on everything reachable."""
    state: dict = {}  # 1 while on the current walk, 2 once finished
    for root in roots:
        if root in state:
            continue
        state[root] = 1
        cells, labels = [root], []
        stack = [iter(steps.get(root, ()))]
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
                stack.append(iter(steps.get(nxt, ())))
    return None


def _maximal_walks(start, steps):
    """Every walk from `start` that steps until a cell with no steps, as
    (cells, labels) tuples, depth first in step order.  The relation must
    be acyclic.  Only a cell with several steps leaves a branch point, so
    a chain of single steps is never unwound."""
    cells, labels = [start], []
    branches = []  # (depth, iterator over the steps not taken yet)
    out = steps.get(start, ())
    while True:
        while out:
            if len(out) > 1:
                branches.append((len(labels), iter(out[1:])))
            label, nxt = out[0]
            cells.append(nxt)
            labels.append(label)
            out = steps.get(nxt, ())
        yield tuple(cells), tuple(labels)
        while branches:
            depth, rest = branches[-1]
            step = next(rest, None)
            if step is not None:
                break
            branches.pop()
        else:
            return
        del cells[depth + 1 :], labels[depth:]
        label, nxt = step
        cells.append(nxt)
        labels.append(label)
        out = steps.get(nxt, ())


def _count_walks(steps, target):
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
            out = steps.get(c, ())
            todo = [nxt for _label, nxt in out if nxt not in memo]
            if todo:
                stack += todo
                continue
            stack.pop()
            memo[c] = sum(memo[nxt] for _label, nxt in out) if out else int(c == target)
        return memo[cell]

    return ways


# ---- L-paths --------------------------------------------------------------


def closed_l_path(L: LineField) -> LPath | None:
    """A closed L-path, rotated to start at its least vertex, or None.
    The field searches once and keeps the verdict."""
    return L._closed


def _require_acyclic(field):
    """Raise CyclicFieldError, witnessed by its closed path, for a cyclic field of either kind."""
    closed = field.closed_path()
    if closed is not None:
        raise CyclicFieldError(field._cyclic_text + closed.cells[0], witness=closed)


def l_paths(L: LineField, source: str, target: str) -> list[LPath]:
    """All L-paths from source to target; at most one exists, the trivial
    path counting when source == target."""
    _require_acyclic(L)
    for v in (source, target):
        if v not in L.complex.vertices:
            raise OperationError(f"{v} is not a vertex of the complex")
    cells, edges = next(_maximal_walks(source, L._steps))
    if target not in cells:
        return []
    k = cells.index(target)
    return [LPath(cells[: k + 1], edges[:k])]


# ---- topological graph ----------------------------------------------------


def topological_graph(field) -> TopologicalGraph:
    """Separatrices of a line or vector field: one per exit slot
    `(key, start)` of a critical cell and maximal walk from `start` to a
    critical cell, which is its witness.  Walks are memoised per start.

    A line field's exits are the unmatched occurrences on a critical
    face's walk, from their corners.  Matched occurrences carry none:
    simplification contracts them out of the walk, merging their corners
    into neighbours, so counting them (or dropping anything else) would
    break the graph-preservation property of homotopy_core; a critical face
    emits exactly c.  A vector field's exits are the boundary occurrences
    of a critical edge or face.
    """
    _require_acyclic(field)
    crit = field.doubled_critical()
    paths: dict[str, list] = {}
    edges = []
    for source in sorted(crit):
        for key, start in field._exits(source):
            if start not in paths:
                paths[start] = [
                    field._path(cells, steps)
                    for cells, steps in _maximal_walks(start, field._steps)
                    if cells[-1] in crit
                ]
            edges += (Separatrix(source, p.cells[-1], key, p) for p in paths[start])
    return TopologicalGraph(tuple(sorted(crit)), tuple(edges))


# ---- corridors ------------------------------------------------------------


def _trace_corridor(L: LineField, start_occ, visited):
    """Cross from `start_occ` and tunnel through count-2 faces, adding each
    occurrence passed to `visited`: a Corridor when a face with another
    count is reached, a ClosedCorridor when the trace is back at its start."""
    S = L.complex
    crossings = []
    faces = []
    cur = start_occ
    while True:
        arrive = S.opposite[cur]
        visited.update((cur, arrive))
        crossings.append(Crossing(S.faces[cur[0]][cur[1]][1], cur, arrive))
        g, q = arrive
        at = L._unmatched[g]
        if len(at) != 2:
            return Corridor(start_occ[0], g, tuple(crossings), tuple(faces))
        faces.append(g)
        cur = (g, at[1] if at[0] == q else at[0])
        if cur == start_occ:
            return ClosedCorridor(tuple(faces), tuple(crossings))


def corridors_from(L: LineField, face: str) -> list[Corridor]:
    """One corridor per unmatched occurrence on the walk of a critical face.

    Each trace crosses to the other occurrence of its edge and keeps
    tunnelling through count-2 faces via their other unmatched occurrence;
    it always terminates on a critical face, possibly the starting one.
    """
    if face not in L.complex.faces:
        raise OperationError(f"{face} is not a face of the complex")
    positions = L._unmatched[face]
    if len(positions) == 2:
        raise OperationError(f"face {face} is not critical")
    return [_trace_corridor(L, (face, i), set()) for i in positions]


def _all_corridors(L: LineField) -> tuple[tuple[Corridor, ...], tuple[ClosedCorridor, ...]]:
    """Every corridor, traced from each unmatched occurrence of each
    critical face in face order, and every closed corridor, traced from the
    least occurrence no earlier trace passed.  Needs no acyclicity."""
    positions = L._unmatched
    faces = sorted(positions)
    visited: set[tuple[str, int]] = set()
    corridors = tuple(
        _trace_corridor(L, (f, i), visited)
        for f in faces
        if len(positions[f]) != 2
        for i in positions[f]
    )
    # The membership test runs after every earlier trace has filled
    # `visited`, so each cycle is traced once.
    closed = tuple(
        _trace_corridor(L, (f, i), visited)
        for f in faces
        if len(positions[f]) == 2
        for i in positions[f]
        if (f, i) not in visited
    )
    return corridors, closed


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
