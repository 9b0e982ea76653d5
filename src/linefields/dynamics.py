"""Path dynamics of a line field and its Morse-Smale style decomposition.

An L-path hops from vertex to vertex across matched edges.  Separatrices
connect a critical face to the critical vertices reached by chains starting
at its corners; corridors leave a critical face through an unmatched
boundary occurrence and tunnel through faces with exactly two unmatched
occurrences until they reach a critical face again.  Corridors that never
touch a critical face close up into cycles and mark periodic behaviour.

Both field kinds subclass `_Field`, which holds the complex, the matching
looked up both ways and the protocol methods that read a field's cached
verdicts.  Each kind builds its step table `{cell: ((label, next), ...)}`
once, as `_steps`, and both share one path engine: `_find_cycle` finds a
closed-path witness, `_fold_walks` folds a value over all walks from a
cell in one memoised post-order pass, which counts walks (`_count_walks`)
and finds where separatrices end, and `_nth_walk` builds every listed
path as the walk of its rank in such a count; none recurses, so path
length is bounded by memory, not by recursion depth.

Each field builds its topological graph once and keeps it.  The graph
holds no walks: a separatrix keeps its start cell and rank, and its `path`
is walked again each time it is read, choosing at each branch cell by the
walk counts of that cell's successors (the only counts a graph keeps, so a
line field's graph keeps none).  The graph costs O(cells + separatrices)
however long its paths are.

The corridor tracer builds nothing per call.  It reads each face's count
and the sibling of an unmatched occurrence from the field's `_unmatched`
positions, and each crossing from the complex's `opposite` slot pairing.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .errors import CyclicFieldError, OperationError, _Record


class _PathView(_Record):
    """The view LPath and XPath share: the `cells` a path visits, the
    `steps` taken between them, and json(), its keys in the JSON report."""

    def is_trivial(self) -> bool:
        return not self.steps

    def is_closed(self) -> bool:
        return len(self.cells) > 1 and self.cells[0] == self.cells[-1]


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


class Separatrix:
    """One edge of the topological graph, from `source` down to `target`.

    `occurrence` names the boundary occurrence of the path's first cell on
    the source cell (a walk position, or an endpoint slot for vector
    fields), so parallel separatrices stay distinct.  `path` is the LPath
    or XPath witness.  A separatrix of a field's graph keeps the `start`
    cell of its walk and the walk's `rank` among the walks from there (both
    None on a separatrix made from a path), builds its path each time it
    is read and keeps none.  Separatrices compare and hash by (source,
    target, occurrence, path).
    """

    __slots__ = ("source", "target", "occurrence", "start", "rank", "_witness", "_walks")

    def __init__(self, source: str, target: str, occurrence: int, path: object):
        self.source = source
        self.target = target
        self.occurrence = occurrence
        self.start = self.rank = self._walks = None
        self._witness = path

    @classmethod
    def _walked(cls, source: str, target: str, occurrence: int, walks, start, rank) -> Separatrix:
        """A separatrix whose path is the walk of rank `rank` from `start`;
        `walks` is its graph's (steps, ways, make), as _nth_walk reads them."""
        sep = cls(source, target, occurrence, None)
        sep.start, sep.rank, sep._walks = start, rank, walks
        return sep

    @property
    def path(self):
        if self._walks is None:
            return self._witness
        steps, ways, make = self._walks
        return _nth_walk(steps, ways, self.start, self.rank, make)

    def _fields(self) -> tuple:
        return (self.source, self.target, self.occurrence, self.path)

    def __eq__(self, other):
        if other.__class__ is not Separatrix:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "Separatrix(source=%r, target=%r, occurrence=%r, path=%r)" % self._fields()


class TopologicalGraph(_Record):
    """Multigraph on the critical cells; edges are separatrices."""

    vertices: tuple[str, ...]
    edges: tuple[Separatrix, ...]

    def multiplicity(self, source: str, target: str) -> int:
        return sum(1 for s in self.edges if s.source == source and s.target == target)


class Crossing(_Record):
    """One step of a corridor: leave through `depart`, an unmatched (face,
    position) occurrence of `edge`, and enter at the edge's other
    occurrence `arrive`."""

    edge: str
    depart: tuple[str, int]
    arrive: tuple[str, int]


class Corridor(_Record):
    start: str
    end: str
    crossings: tuple[Crossing, ...]
    interior: tuple[str, ...]


class ClosedCorridor(_Record):
    """A corridor cycle through faces with two unmatched occurrences,
    touching no critical face."""

    faces: tuple[str, ...]
    crossings: tuple[Crossing, ...]


class DecompositionReport(_Record):
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


def _fold_walks(steps, roots, leaves, other, join) -> dict:
    """A value for every cell reachable from `roots`: at a cell with no
    steps its value in `leaves`, or `other` when it has none there; at a
    cell with one step its successor's value, shared (the walks from it
    are the successor's); else `join` of the list of its successors'
    values in step order.  One iterative post-order pass; the relation
    must be acyclic."""
    memo: dict = {}
    for root in roots:
        if root in memo:
            continue
        stack = [root]
        while stack:
            c = stack[-1]
            if c in memo:
                stack.pop()
                continue
            out = steps.get(c)
            if not out:
                memo[c] = leaves.get(c, other)
            elif len(out) == 1:
                nxt = out[0][1]
                if nxt not in memo:
                    stack.append(nxt)
                    continue
                memo[c] = memo[nxt]
            else:
                todo = [nxt for _label, nxt in out if nxt not in memo]
                if todo:
                    stack += todo
                    continue
                memo[c] = join([memo[nxt] for _label, nxt in out])
            stack.pop()
    return memo


def _count_walks(steps, roots, target) -> dict:
    """How many maximal walks from each cell reachable from `roots` end at
    `target`."""
    return _fold_walks(steps, roots, {target: 1}, 0, sum)


def _branch(out, ways, k):
    """The step of `out`, a branch cell's steps, whose block of counted
    walks holds the k-th (blocks in step order, sized by `ways`), and the
    walk's rank within that block."""
    for step in out:
        if k < ways[step[1]]:
            break
        k -= ways[step[1]]
    return step, k


def _nth_walk(steps, ways, start, k, make):
    """`make(cells, labels)` of the k-th walk from `start`, in step order,
    among those `ways` counts (a walk count per cell, as _count_walks
    gives; only branch cells' successors are read): at each branch it
    takes the step _branch picks, so it costs the walk's length."""
    cells, labels = [start], []
    out = steps.get(start, ())
    while out:
        if len(out) == 1:
            ((label, nxt),) = out
        else:
            (label, nxt), k = _branch(out, ways, k)
        cells.append(nxt)
        labels.append(label)
        out = steps.get(nxt, ())
    return make(tuple(cells), tuple(labels))


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
    path counting when source == target.  A line field never branches, so
    it is the one walk from `source`, cut at `target`."""
    _require_acyclic(L)
    for v in (source, target):
        if v not in L.complex.vertices:
            raise OperationError(f"{v} is not a vertex of the complex")
    path = _nth_walk(L._steps, {}, source, 0, LPath)
    if target not in path.vertices:
        return []
    k = path.vertices.index(target)
    return [LPath(path.vertices[: k + 1], path.edges[:k])]


# ---- topological graph ----------------------------------------------------


def topological_graph(field) -> TopologicalGraph:
    """Separatrices of a line or vector field: one per exit slot
    `(key, start)` of a critical cell and maximal walk from `start` to a
    critical cell, which is its witness.  The field builds the graph once
    and keeps it.

    A line field's exits are the unmatched occurrences on a critical
    face's walk, from their corners.  Matched occurrences carry none:
    simplification contracts them out of the walk, merging their corners
    into neighbours, so counting them (or dropping anything else) would
    break the graph-preservation property of homotopy_core; a critical face
    emits exactly c.  A vector field's exits are the boundary occurrences
    of a critical edge or face.
    """
    _require_acyclic(field)
    return field._graph


def _build_graph(field) -> TopologicalGraph:
    """topological_graph without the acyclicity check.  One post-order pass
    over the steps from every exit finds, for each cell, the critical ends
    of its walks in walk order (one per cell on a line field), so the graph
    costs O(cells + separatrices); each separatrix walks its path only when
    it is read.  The graph keeps the walk count of each branch cell's
    successors, all _nth_walk reads."""
    crit = field.doubled_critical()
    steps = field._steps
    exits = [(source, key, start) for source in sorted(crit) for key, start in field._exits(source)]
    starts = (start for _s, _k, start in exits)
    ends = _fold_walks(
        steps, starts, {c: (c,) for c in crit}, (), lambda parts: tuple(chain.from_iterable(parts))
    )
    branches = (steps[c] for c in ends if len(steps.get(c, ())) > 1)
    ways = {nxt: len(ends[nxt]) for out in branches for _label, nxt in out}
    walks = (steps, ways, field._path)
    edges = tuple(
        Separatrix._walked(source, target, key, walks, start, k)
        for source, key, start in exits
        for k, target in enumerate(ends[start])
    )
    return TopologicalGraph(tuple(sorted(crit)), edges)


class _Field(_Record):
    """The body LineField and VectorField share: a complex, a set of
    (lower, upper) pairs looked up both ways, and the field protocol
    methods that only read a subclass's cached verdicts.

    A subclass supplies `_pair_problems` (the matching's violations),
    `_critical`, `_closed`, `_steps` and `_exits`, and the hooks `_path`,
    `_path_keys` and `_cyclic_text`, and may define __post_init__, which
    _Record.__init__ calls.  Every table is built once, on first use.
    """

    complex: SurfaceComplex
    matching: frozenset[tuple[str, str]] = frozenset()

    def problems(self) -> list[str]:
        """Structural violations of the complex, then of the matching."""
        return self.complex.validate() + self._pair_problems

    def doubled_critical(self) -> dict[str, int]:
        """The critical cells with twice their index, computed once per
        field; callers only read it."""
        return self._critical

    def closed_path(self):
        """A closed path witness, or None when the field is acyclic."""
        return self._closed

    graph = topological_graph

    @cached_property
    def _graph(self) -> TopologicalGraph:
        return _build_graph(self)

    @cached_property
    def _upper_of(self) -> dict[str, str]:
        return dict(self.matching)

    @cached_property
    def _lower_of(self) -> dict[str, str]:
        return {up: lo for lo, up in self.matching}


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
    graph = L.graph()  # refuses a cyclic field
    corridors, closed = L.corridors()
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
