"""Path dynamics of a line field and its Morse-Smale style decomposition.

An L-path hops from vertex to vertex across matched edges.  Separatrices
connect a critical face to the critical vertices reached by chains starting
at its corners; corridors leave a critical face through an unmatched
boundary occurrence and tunnel through faces with exactly two unmatched
occurrences until they reach a critical face again.  Corridors that never
touch a critical face close up into cycles and mark periodic behaviour.

Both field kinds subclass `_Field`, which holds the complex, the matching
looked up both ways and the protocol methods that read a field's cached
verdicts, closed_path() and graph() among them; the path queries
paths(a, b) and count_paths(a, b) are methods of each kind.  Each kind
supplies `_scan`, one pass over its sorted matching that finds the
matching's violations, builds its step table
`{cell: ((label, next), ...)}` (`_steps`) and lists the roots of the
closed-path search.  Both share one path engine: `_search`, one
depth-first search, finds the first closed walk and, given a fold, folds
a value over all walks from each cell as it finishes the cell, which
counts walks (`_count_walks`) and finds where separatrices end; and
`_nth_walk` builds every listed path as the walk of its rank in such a
count.  Neither recurses, so path length is bounded by memory, not by
recursion depth.

Each field builds its topological graph, graph(), once and keeps it.  The
graph holds no walks: it keeps a row (source, target, occurrence, start,
rank) per separatrix and builds its `edges` from them on first read; a
separatrix's `path` is walked again each time it is read, choosing at each
branch cell by the walk counts of that cell's successors (the only counts
a graph keeps, so a line field's graph keeps none).  The graph costs
O(cells + separatrices) however long its paths are.

The corridor tracer reads each face's count and the sibling of an
unmatched occurrence from the field's `_unmatched` positions, and each
crossing from the two slots of its edge in the complex's
`occurrence_index`.  It keeps each corridor in the field's table as its
crossed edges and flat slots, so corridors_from, corridors() and the face
merge read one trace; `crossings` is built on first read.  The writers in
formats.py read the graph's rows and these traces, not the records.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .errors import CyclicFieldError, OperationError, _OnRead, _Record


class LPath(_Record):
    """Vertices v1..vk with witness edges e1..e(k-1); {vi, ei} is matched
    and v(i+1) is the other endpoint of ei (vi itself for a loop).  Like an
    XPath, it names the `cells` it visits and the `steps` taken between
    them."""

    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    @property
    def cells(self) -> tuple[str, ...]:
        return self.vertices

    @property
    def steps(self) -> tuple[str, ...]:
        return self.edges


def _walk(sep):
    """A graph separatrix's path; `_walks` is its graph's (steps, ways, make)."""
    steps, ways, make = sep._walks
    return _nth_walk(steps, ways, sep.start, sep.rank, make)


class Separatrix(_Record):
    """One edge of the topological graph, from `source` down to `target`.

    `occurrence` names the boundary occurrence of the path's first cell on
    the source cell (a walk position, or an endpoint slot for vector
    fields), so parallel separatrices stay distinct.  `path` is the LPath
    or XPath witness.  A separatrix of a field's graph keeps the `start`
    cell of its walk and the walk's `rank` among the walks from there (both
    None on a separatrix made from a path), walks its path on each read
    and keeps none.
    """

    source: str
    target: str
    occurrence: int
    path: object = _OnRead(_walk, keep=False)

    start = rank = None
    _trace = ("source", "target", "occurrence", "start", "rank", "_walks")


def _separatrices(graph):
    """A field's graph's separatrices, one per row of its trace."""
    walks = graph._walks
    return tuple(Separatrix._traced(*row, walks) for row in graph._rows)


class TopologicalGraph(_Record):
    """Multigraph on the critical cells; edges are separatrices, which a
    field's graph builds from its rows on first read."""

    vertices: tuple[str, ...]
    edges: tuple[Separatrix, ...] = _OnRead(_separatrices)
    _trace = ("vertices", "_rows", "_walks")

    def multiplicity(self, source: str, target: str) -> int:
        return sum(1 for s in self.edges if s.source == source and s.target == target)


class Crossing(_Record):
    """One step of a corridor: leave through `depart`, an unmatched (face,
    position) occurrence of `edge`, and enter at the edge's other
    occurrence `arrive`."""

    edge: str
    depart: tuple[str, int]
    arrive: tuple[str, int]


def _crossings(corridor):
    """A traced corridor's crossings, from its edges and flat slots."""
    slots = iter(corridor._slots)
    return tuple(map(Crossing, corridor._edges, slots, slots))


class Corridor(_Record):
    start: str
    end: str
    crossings: tuple[Crossing, ...] = _OnRead(_crossings)
    interior: tuple[str, ...]
    _trace = ("start", "end", "interior", "_edges", "_slots")


class ClosedCorridor(_Record):
    """A corridor cycle through faces with two unmatched occurrences,
    touching no critical face."""

    faces: tuple[str, ...]
    crossings: tuple[Crossing, ...] = _OnRead(_crossings)
    _trace = ("faces", "_edges", "_slots")


class DecompositionReport(_Record):
    field: LineField
    graph: TopologicalGraph
    corridors: tuple[Corridor, ...]
    closed_corridors: tuple[ClosedCorridor, ...]
    regions: int
    flags: tuple[str, ...]


# ---- path engine ----------------------------------------------------------


_OPEN = object()  # the search's mark of a cell on the current walk


def _search(roots, steps, fold=None):
    """One iterative depth-first search from `roots`, in order: (values,
    cycle).  `cycle` is the first closed walk it runs into, as (cells,
    labels) from the re-entered cell back to itself, or None when the
    relation is acyclic on everything reachable; `values` then holds a
    value for every cell reached, given as the search finishes it.  With
    fold=None that value is a mark.  With fold=(leaves, other, join) it is
    at a cell with no steps its value in `leaves`, or `other` when it has
    none there; at a cell with one step its successor's value, shared (the
    walks from it are the successor's); else `join` of the list of its
    successors' values in step order; no value may be None."""
    values: dict = {}  # _OPEN while on the current walk, then the cell's value
    if fold is not None:
        leaves, other, join = fold
    for root in roots:
        if root in values:
            continue
        values[root] = _OPEN
        walk = [(None, root)]  # the current walk's steps, each (label, cell)
        stack = [iter(steps.get(root, ()))]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                c = walk.pop()[1]
                if fold is None:
                    values[c] = True
                else:
                    out = steps.get(c)
                    if not out:
                        values[c] = leaves.get(c, other)
                    elif len(out) == 1:
                        values[c] = values[out[0][1]]
                    else:
                        values[c] = join([values[nxt] for _label, nxt in out])
                stack.pop()
                continue
            nxt = step[1]
            seen = values.get(nxt)
            if seen is _OPEN:
                k = [c for _label, c in walk].index(nxt)
                loop = walk[k + 1:] + [step]
                cells = (nxt,) + tuple(c for _label, c in loop)
                return values, (cells, tuple(label for label, _c in loop))
            if seen is None:
                values[nxt] = _OPEN
                walk.append(step)
                stack.append(iter(steps.get(nxt, ())))
    return values, None


def _count_walks(steps, roots, target) -> dict:
    """How many maximal walks from each cell reachable from `roots` end at
    `target`."""
    return _search(roots, steps, ({target: 1}, 0, sum))[0]


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


# ---- the field body -------------------------------------------------------


def _require_acyclic(field):
    """Refuse an unsound field at its door, then a cyclic one with CyclicFieldError."""
    field._require_valid()
    closed = field.closed_path()
    if closed is not None:
        raise CyclicFieldError(field._cyclic_text + closed.cells[0], witness=closed)


class _Field(_Record):
    """The body LineField and VectorField share: a complex, a set of
    (lower, upper) pairs looked up both ways, and the field protocol
    methods that only read a subclass's cached verdicts: problems(),
    doubled_critical(), closed_path(), graph() and corridors().  Each kind
    defines the other two, paths(a, b) and count_paths(a, b), its own way.

    It sorts the matching once, `_pairs`, which the scans, the writers and
    the radial bridge read.  A subclass supplies `_scan`, one pass over
    `_pairs` that returns (the matching's violations, the step table, the
    roots of the closed-path search), `_critical`, `_corridors` and
    `_exits`, and the hooks `_path`, `_path_keys`, `_kind` and
    `_cyclic_text`; it may override `_witness` and define __post_init__,
    which _Record.__init__ calls.  Every table is built once, on first use.
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
        """A closed path witness, or None when the field is acyclic: an
        L-path rotated to start at its least vertex, or an X-path in either
        dimension.  The field searches once and keeps the verdict."""
        return self._closed

    def graph(self) -> TopologicalGraph:
        """Separatrices of the field: one per exit slot `(key, start)` of a
        critical cell and maximal walk from `start` to a critical cell,
        which is its witness.  The field builds the graph once and keeps it.

        A line field's exits are the unmatched occurrences on a critical
        face's walk, from their corners.  Matched occurrences carry none:
        simplification contracts them out of the walk, merging their corners
        into neighbours, so counting them (or dropping anything else) would
        break the graph-preservation property of homotopy_core; a critical
        face emits exactly c.  A vector field's exits are the boundary
        occurrences of a critical edge or face.
        """
        _require_acyclic(self)
        return self._graph

    def corridors(self):
        """(corridors, closed corridors), traced once per field; a vector
        field, a cell matching, has none."""
        return self._corridors

    def upper_of(self, lower: str) -> str | None:
        return self._upper_of.get(lower)

    def lower_of(self, upper: str) -> str | None:
        return self._lower_of.get(upper)

    def matched_cells(self) -> frozenset[str]:
        return frozenset(self._upper_of.keys() | self._lower_of.keys())

    def _require_valid(self):
        """The field door: OperationError with the matching's first
        violation, then the complex door; both read cached verdicts."""
        if self._pair_problems:
            raise OperationError(f"not a valid {self._kind}: {self._pair_problems[0]}")
        self.complex._require_valid()

    _pairs = cached_property(lambda self: tuple(sorted(self.matching)))

    _pair_problems = property(lambda self: self._scan[0])
    _steps = property(lambda self: self._scan[1])

    def _witness(self, cells, labels):
        """The closed path of a cycle `_search` found."""
        return self._path(cells, labels)

    @cached_property
    def _closed(self):
        _problems, steps, roots = self._scan
        cycle = _search(roots, steps)[1]
        return None if cycle is None else self._witness(*cycle)

    @cached_property
    def _graph(self) -> TopologicalGraph:
        """graph() without the acyclicity check.  One search over
        the steps from every exit folds, for each cell, the critical ends
        of its walks in walk order (one per cell on a line field), so the
        graph costs O(cells + separatrices); each separatrix walks its path
        only when it is read.  The graph keeps the walk count of each
        branch cell's successors, all _nth_walk reads."""
        crit = self.doubled_critical()
        steps = self._steps
        exits = [(src, key, start) for src in sorted(crit) for key, start in self._exits(src)]
        starts = (start for _s, _k, start in exits)
        fold = ({c: (c,) for c in crit}, (), lambda parts: tuple(chain.from_iterable(parts)))
        ends = _search(starts, steps, fold)[0]
        branches = (steps[c] for c in ends if len(steps.get(c, ())) > 1)
        ways = {nxt: len(ends[nxt]) for out in branches for _label, nxt in out}
        rows = tuple(
            (source, target, key, start, k)
            for source, key, start in exits
            for k, target in enumerate(ends[start])
        )
        return TopologicalGraph._traced(tuple(sorted(crit)), rows, (steps, ways, self._path))

    @cached_property
    def _upper_of(self) -> dict[str, str]:
        return dict(self.matching)

    @cached_property
    def _lower_of(self) -> dict[str, str]:
        return {up: lo for lo, up in self.matching}


# perfbench/jobs.py times dynamics.closed_l_path under this name.
closed_l_path = _Field.closed_path


# ---- corridors ------------------------------------------------------------


def _trace_corridor(L: LineField, start_occ):
    """Cross from `start_occ` and tunnel through count-2 faces: a Corridor
    when a face with another count is reached, a ClosedCorridor when the
    trace is back at its start.  A corridor is traced once per field and
    kept in its table (`_corridor_table`) under both end occurrences; at
    the other end its reverse, both tuples of its trace reversed, is made
    on first use, since tracing is deterministic and reversible."""
    table = L._corridor_table
    corr = table.get(start_occ)
    if corr is not None:
        if corr._slots[0] != start_occ:
            corr = table[start_occ] = Corridor._traced(
                corr.end, corr.start, corr.interior[::-1], corr._edges[::-1], corr._slots[::-1])
        return corr
    walks, index, unmatched = L.complex.faces, L.complex.occurrence_index, L._unmatched
    edges, slots, faces = [], [], []  # slots: depart, arrive, depart, arrive, ...
    cur = start_occ
    while True:
        edge = walks[cur[0]][cur[1]][1]
        a, b = index[edge]
        arrive = b if a == cur else a
        edges.append(edge)
        slots += cur, arrive
        g, q = arrive
        at = unmatched[g]
        if len(at) != 2:
            corr = Corridor._traced(start_occ[0], g, tuple(faces), tuple(edges), tuple(slots))
            table[start_occ] = table[arrive] = corr
            return corr
        faces.append(g)
        cur = (g, at[1] if at[0] == q else at[0])
        if cur == start_occ:
            return ClosedCorridor._traced(tuple(faces), tuple(edges), tuple(slots))


def corridors_from(L: LineField, face: str) -> list[Corridor]:
    """One corridor per unmatched occurrence on the walk of a critical face.

    Each corridor crosses to the other occurrence of its edge and keeps
    tunnelling through count-2 faces via their other unmatched occurrence;
    it always ends on a critical face, possibly the starting one.  They
    are read from the field's table, which traces each corridor once.
    Refuses an unknown face, then an unsound complex; it takes any matching.
    """
    if face not in L.complex.faces:
        raise OperationError(f"{face} is not a face of the complex")
    L.complex._require_valid()
    positions = L._unmatched[face]
    if len(positions) == 2:
        raise OperationError(f"face {face} is not critical")
    return [_trace_corridor(L, (face, i)) for i in positions]


def _all_corridors(L: LineField) -> tuple[tuple[Corridor, ...], tuple[ClosedCorridor, ...]]:
    """Every corridor, one from each unmatched occurrence of each critical
    face in face order, and every closed corridor, traced from the first
    unmatched position of each count-2 face that no corridor and no earlier
    closed corridor passes: a trace passes both unmatched occurrences of
    each count-2 face it enters.  Needs no acyclicity and takes any
    matching, but refuses an unsound complex at its door."""
    L.complex._require_valid()
    positions = L._unmatched
    faces = sorted(positions)
    corridors = tuple(
        _trace_corridor(L, (f, i)) for f in faces if len(positions[f]) != 2 for i in positions[f]
    )
    passed = set(chain.from_iterable(c.interior for c in corridors))
    closed = []
    for f in faces:
        if len(positions[f]) == 2 and f not in passed:
            closed.append(_trace_corridor(L, (f, positions[f][0])))
            passed.update(closed[-1].faces)
    return corridors, tuple(closed)


def ms_decomposition(L: LineField) -> DecompositionReport:
    """Topological graph, all corridors, and closed corridors of the field.

    The corridors come in reverse pairs, one from each end, and no
    corridor is its own reverse: a trace never leaves a face through the
    occurrence it arrived by.  So `regions`, the corridors counted up to
    direction, is half their number.  Closed corridors are flagged as
    periodic components.
    """
    graph = L.graph()  # refuses a cyclic field
    corridors, closed = L.corridors()
    return DecompositionReport(
        field=L,
        graph=graph,
        corridors=corridors,
        closed_corridors=closed,
        regions=len(corridors) // 2,
        flags=("periodic component",) if closed else (),
    )
