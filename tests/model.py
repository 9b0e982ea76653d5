"""A slow reference model of the paper's objects and moves, for the
differential tests.

It is written from the definitions and the package's documented naming
conventions, not from the package's code, and it imports only the
standard library.  A complex is a `Complex` of plain containers: a set of
vertices, a dict of edges `e -> (tail, head)` and a dict of faces
`f -> walk`, a walk being a tuple of signed occurrences `(+1 | -1, e)`.
A field is a `Field`, a complex and a set of pairs.  Every move builds new
containers, one move at a time, and leaves each walk it makes at its
canonical rotation; the homotopy core, the corridor merge, the
vertex-face cancellation and both directions of the radial bridge are
sequences of these moves.  Searches are brute force: every rotation is
tried, walks are scanned for each edge, and paths are enumerated.

A move that refuses raises `Refused`, carrying the name of the exception
class the package documents for that refusal and its message, so a test
compares refusals without the model importing the package.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import NamedTuple


class Complex(NamedTuple):
    vertices: frozenset
    edges: dict
    faces: dict
    name: str = "surface"


@dataclasses.dataclass(frozen=True)
class Field:
    """A complex and its pairs; `memo` keeps what queries of it compute."""

    complex: Complex
    matching: frozenset
    memo: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)


class Refused(Exception):
    """A refusal: `kind` names the package's exception class."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def complex_of(S) -> Complex:
    """A package complex, read into plain containers in their order."""
    return Complex(frozenset(S.vertices), dict(S.edges), dict(S.faces), S.name)


def field_of(X) -> Field:
    """A package line or vector field, read into plain containers."""
    return Field(complex_of(X.complex), frozenset(X.matching))


def corridor_of(record) -> tuple:
    """A package Corridor or ClosedCorridor as `corridors` writes it."""
    crossings = tuple((c.edge, c.depart, c.arrive) for c in record.crossings)
    if hasattr(record, "faces"):
        return record.faces, crossings
    return record.start, record.end, crossings, record.interior


def outcome(call, refusal=Refused):
    """("ok", call()), or (class name, message) of a `refusal` it raises."""
    try:
        return "ok", call()
    except refusal as exc:
        return getattr(exc, "kind", type(exc).__name__), str(exc)


def kept(field: Field, key, build):
    """build(), computed once per key and kept with the field: a test asks
    many queries of one field, and the model never changes a field."""
    if key not in field.memo:
        field.memo[key] = build()
    return field.memo[key]


# ---- cells and walks --------------------------------------------------------


def dim(C: Complex, cell: str):
    """0, 1 or 2 for a vertex, edge or face of C; None for no cell."""
    for d, cells in enumerate((C.vertices, C.edges, C.faces)):
        if cell in cells:
            return d
    return None


def source(C: Complex, occ) -> str:
    """The vertex an occurrence starts at: the tail of +e, the head of -e."""
    tail, head = C.edges[occ[1]]
    return tail if occ[0] > 0 else head


def target(C: Complex, occ) -> str:
    tail, head = C.edges[occ[1]]
    return head if occ[0] > 0 else tail


def text(occ) -> str:
    return ("+" if occ[0] > 0 else "-") + occ[1]


def rotation(walk) -> tuple:
    """The rotation of `walk` whose occurrence texts read least, found by
    trying every rotation."""
    walk = tuple(walk)
    keys = [text(occ) for occ in walk]
    best = min(range(len(walk)), key=lambda i: keys[i:] + keys[:i], default=0)
    return walk[best:] + walk[:best]


def reverse(walk) -> tuple:
    return tuple((-s, e) for s, e in reversed(walk))


def occurrences(C: Complex, edge: str) -> list:
    """The (face, position) slots of `edge`, in sorted face order."""
    return [(f, i) for f in sorted(C.faces) if (1, edge) in C.faces[f] or (-1, edge) in C.faces[f]
            for i, (_s, e) in enumerate(C.faces[f]) if e == edge]


def fresh(C: Complex, *bases: str) -> list:
    """An id per base in turn: the base, or the base with the least suffix
    _2, _3, ... that no cell of C and no earlier pick uses."""
    picked: list = []
    for base in bases:
        x, n = base, 2
        while dim(C, x) is not None or x in picked:
            x, n = f"{base}_{n}", n + 1
        picked.append(x)
    return picked


# ---- the closed-surface conditions -----------------------------------------


def validate(C: Complex) -> list:
    """The problems that keep C from being a closed surface, in the
    package's words: an edge not occurring twice, a walk that does not
    chain, more than one component of the incidence graph of all cells,
    and no face at all."""
    problems = []
    counts = Counter(e for walk in C.faces.values() for _s, e in walk)
    for e in sorted(C.edges):
        if counts[e] != 2:
            problems.append(f"edge {e} occurs {counts[e]} time(s) in boundary walks, expected 2")
    for f in sorted(C.faces):
        walk = C.faces[f]
        for i, occ in enumerate(walk):
            j = (i + 1) % len(walk)
            here, there = target(C, occ), source(C, walk[j])
            if here != there:
                problems.append(f"face {f} breaks between positions {i} and {j}: {here} != {there}")
    adjacent = {(d, c): set() for d, cells in enumerate((C.vertices, C.edges, C.faces))
                for c in cells}
    for e, ends in C.edges.items():
        for v in ends:
            adjacent[1, e].add((0, v))
            adjacent[0, v].add((1, e))
    for f, walk in C.faces.items():
        for _s, e in walk:
            adjacent[2, f].add((1, e))
            adjacent[1, e].add((2, f))
    seen: set = set()
    components = 0
    for start in adjacent:
        if start not in seen:
            components += 1
            todo = [start]
            seen.add(start)
            while todo:
                for nxt in adjacent[todo.pop()] - seen:
                    seen.add(nxt)
                    todo.append(nxt)
    if components > 1:
        problems.append(f"incidence structure is disconnected ({components} components)")
    if not C.faces:
        problems.append("complex has no face")
    return problems


def link_cycles(C: Complex) -> dict:
    """The link of each vertex, walked corner by corner.

    Corner (f, i) has an "in" slot holding the end of the edge entering it
    and an "out" slot holding the end of the edge leaving it.  A step
    crosses the corner to its other slot, then the edge end there to that
    end's other slot, which it records.  Cycles start from the lesser slot
    of each edge end not yet passed, the ends taken tail then head in
    sorted edge order, and end back at that slot.  Needs every edge twice.
    """
    held = {}  # slot -> (edge, 0 for its tail or 1 for its head)
    for f in sorted(C.faces):
        walk = C.faces[f]
        for i, (s, e) in enumerate(walk):
            ps, pe = walk[i - 1]
            held[f, i, "in"] = (pe, 1 if ps > 0 else 0)
            held[f, i, "out"] = (e, 0 if s > 0 else 1)
    holders: dict = {}
    for slot, end in sorted(held.items()):
        holders.setdefault(end, []).append(slot)
    cycles: dict = {v: [] for v in C.vertices}
    passed: set = set()
    for end in sorted(holders):
        first = holders[end][0]
        if first in passed:
            continue
        cycle, slot = [], first
        while True:
            f, i, side = slot
            across = (f, i, "out" if side == "in" else "in")
            a, b = holders[held[across]]
            slot = b if a == across else a
            passed.update((across, slot))
            cycle.append(slot)
            if slot == first:
                break
        cycles[C.edges[end[0]][end[1]]].append(tuple(cycle))
    return {v: tuple(cs) for v, cs in cycles.items()}


def dual(C: Complex) -> Complex:
    """The dual complex: a vertex per face, an edge per edge from the face
    of its first occurrence to the face of its second, and a face per
    vertex walking its one link cycle.  Each slot the cycle records
    crosses an edge occurrence, the one at its corner for an "out" slot
    and the one before it for an "in" slot, forwards when that is the
    edge's second occurrence.  Refuses a complex with a problem, then one
    whose least vertex with other than one link cycle it names."""
    problems = validate(C)
    if problems:
        raise Refused("InvalidComplexError", f"cannot dualize: {problems[0]}")
    cycles = link_cycles(C)
    for v in sorted(cycles):
        if len(cycles[v]) != 1:
            raise Refused("InvalidComplexError",
                          f"cannot dualize: link of vertex {v} has {len(cycles[v])} cycles")
    slots = {e: occurrences(C, e) for e in C.edges}
    faces = {}
    for v, (cycle,) in cycles.items():
        walk = []
        for f, i, side in cycle:
            if side == "in":
                i = (i - 1) % len(C.faces[f])
            e = C.faces[f][i][1]
            walk.append((1 if slots[e][1] == (f, i) else -1, e))
        faces[v] = rotation(walk)
    edges = {e: (first[0], second[0]) for e, (first, second) in slots.items()}
    return Complex(frozenset(C.faces), edges, faces, f"{C.name}_dual")


# ---- the surgery moves ------------------------------------------------------


def split_face(C: Complex, face: str, p: int, q: int, diag: str, a: str, b: str) -> Complex:
    """Split `face` by a new edge `diag` from the vertex of corner p (its
    tail) to that of corner q: face a takes positions p..q-1 and then the
    diagonal backwards, face b takes positions q..p-1 and then the diagonal
    forwards."""
    walk = C.faces[face]
    n = len(walk)
    edges = {**C.edges, diag: (source(C, walk[p]), source(C, walk[q]))}
    faces = {g: w for g, w in C.faces.items() if g != face}
    faces[a] = rotation([walk[(p + k) % n] for k in range((q - p) % n)] + [(-1, diag)])
    faces[b] = rotation([walk[(q + k) % n] for k in range((p - q) % n)] + [(1, diag)])
    return C._replace(edges=edges, faces=faces)


def delete_edge(C: Complex, edge: str, merged: str) -> Complex:
    """Delete `edge`, which lies on two faces, and join them into face
    `merged`.  The face first in sorted order keeps its direction; the rest
    of the other replaces the deleted occurrence, reversed when both
    occurrences carry the same sign."""
    (f1, p1), (f2, p2) = occurrences(C, edge)
    wa, wb = C.faces[f1], C.faces[f2]
    rest = wb[p2 + 1 :] + wb[:p2]
    if wa[p1][0] == wb[p2][0]:
        rest = reverse(rest)
    walk = wa[:p1] + rest + wa[p1 + 1 :]
    if not walk:
        raise Refused("DegenerateOperationError",
                      f"deleting {edge} would leave a face with an empty boundary")
    edges = {e: ends for e, ends in C.edges.items() if e != edge}
    faces = {g: w for g, w in C.faces.items() if g not in (f1, f2)}
    faces[merged] = rotation(walk)
    return C._replace(edges=edges, faces=faces)


def identity(C: Complex) -> dict:
    return {c: c for cells in (C.vertices, C.edges, C.faces) for c in cells}


def contract(field: Field, v: str, e: str):
    """Contract the matched pair (v, e): e leaves every walk and v merges
    into e's other end.  Returns the field and the cell map."""
    C = field.complex
    if (v, e) not in field.matching:
        raise Refused("OperationError", f"({v}, {e}) is not a matched pair")
    tail, head = C.edges[e]
    if tail == head:
        raise Refused("OperationError", f"cannot contract the matched loop {e}")
    keep = head if v == tail else tail
    faces = dict(C.faces)
    for f, walk in C.faces.items():
        if (1, e) in walk or (-1, e) in walk:
            trimmed = [occ for occ in walk if occ[1] != e]
            if not trimmed:
                raise Refused("DegenerateOperationError",
                              f"contracting {e} would leave face {f} with an empty boundary")
            faces[f] = rotation(trimmed)
    edges = {x: ends if v not in ends else tuple(keep if u == v else u for u in ends)
             for x, ends in C.edges.items() if x != e}
    mapping = identity(C)
    mapping[v] = mapping[e] = keep
    T = C._replace(vertices=C.vertices - {v}, edges=edges, faces=faces)
    return Field(T, field.matching - {(v, e)}), mapping


def collapse(field: Field, f: str):
    """Collapse the two-sided face f of an unmatched field: delete the
    lesser of its two edges, whose other face absorbs f and keeps its id.
    Returns the field and the cell map."""
    C = field.complex
    if field.matching:
        raise Refused("OperationError", "matched pairs remain; contract them before collapsing")
    if f not in C.faces:
        raise Refused("OperationError", f"{f} is not a face of the complex")
    walk = C.faces[f]
    if len(walk) != 2:
        raise Refused("OperationError", f"face {f} is critical")
    (_s, a), (_t, b) = walk
    if a == b:
        raise Refused("DegenerateOperationError",
                      f"face {f} repeats {a} twice; collapsing needs two distinct edges")
    gone = min(a, b)
    (g,) = [h for h, _i in occurrences(C, gone) if h != f]
    mapping = identity(C)
    mapping[f] = mapping[gone] = g
    return Field(delete_edge(C, gone, g), frozenset()), mapping


# ---- paths ------------------------------------------------------------------


def validate_line_field(field: Field) -> list:
    """The pairs that break the line-field conditions, in the package's words."""
    C = field.complex
    problems = []
    for v, e in sorted(field.matching):
        if v not in C.vertices:
            problems.append(f"pair ({v}, {e}) references unknown vertex {v}")
        elif e not in C.edges:
            problems.append(f"pair ({v}, {e}) references unknown edge {e}")
        elif v not in C.edges[e]:
            problems.append(f"pair ({v}, {e}): {v} is not an endpoint of {e}")
    for kind, k in (("vertex", 0), ("edge", 1)):
        for c, m in sorted(Counter(pair[k] for pair in field.matching).items()):
            if m > 1:
                problems.append(f"{kind} {c} appears in {m} pairs")
    return problems


def validate_vector_field(field: Field) -> list:
    """The pairs that break the vector-field conditions, in the package's words."""
    C = field.complex
    problems = []
    for lo, up in sorted(field.matching):
        dlo, dup = dim(C, lo), dim(C, up)
        if dlo is None or dup is None:
            unknown = lo if dlo is None else up
            problems.append(f"pair ({lo}, {up}) references unknown cell {unknown}")
        elif dup - dlo != 1:
            problems.append(f"pair ({lo}, {up}): dimensions differ by {dup - dlo}")
        elif dlo == 0 and lo not in C.edges[up]:
            problems.append(f"pair ({lo}, {up}): {lo} is not an endpoint of {up}")
        elif dlo == 1 and lo not in [e for _s, e in C.faces[up]]:
            problems.append(f"pair ({lo}, {up}): {lo} is not on the boundary walk of {up}")
    for c, m in sorted(Counter(c for pair in field.matching for c in pair).items()):
        if m > 1:
            problems.append(f"cell {c} appears in {m} pairs")
    return problems


def boundary(C: Complex, cell: str) -> list:
    """The (key, cell) slots of an edge's ends (0 tail, 1 head) or a face's
    walk positions, in order."""
    if cell in C.edges:
        return list(enumerate(C.edges[cell]))
    return [(i, e) for i, (_s, e) in enumerate(C.faces.get(cell, ()))]


def line_steps(field: Field) -> dict:
    """v -> ((e, w),) for each pair (v, e) of a line field whose pairs are
    each valid, w the other end of e (v itself on a loop); the pairs are
    read in sorted order, so a vertex in several pairs steps by the last."""
    steps = {}
    for v, e in sorted(field.matching):
        tail, head = field.complex.edges[e]
        steps[v] = ((e, head if v == tail else tail),)
    return steps


def vector_steps(field: Field) -> dict:
    """lo -> (((up, key), c), ...) for each pair (lo, up) of a vector field
    whose pairs are each valid: an X-step to every other cell c on the
    boundary of up; the pairs are read in sorted order, so a cell that is
    lower in several pairs steps by the last."""
    C = field.complex
    return {lo: tuple(((up, key), c) for key, c in boundary(C, up) if c != lo)
            for lo, up in sorted(field.matching)}


def roots(field: Field, steps: dict) -> list:
    """The cells a path search starts from: the matched lower cells, by
    dimension, then id."""
    return sorted(steps, key=lambda c: (dim(field.complex, c), c))


def closed_walk(steps: dict, starts) -> tuple | None:
    """The first closed walk a depth-first search runs into, from `starts`
    in order and each cell's steps in order: (cells, labels) from the
    re-entered cell back to itself, or None."""
    done: set = set()
    cells: list = []
    labels: list = []

    def visit(cell):
        if cell in cells:
            k = cells.index(cell)
            return tuple(cells[k:]) + (cell,), tuple(labels[k:])
        if cell in done:
            return None
        cells.append(cell)
        for label, nxt in steps.get(cell, ()):
            labels.append(label)
            found = visit(nxt)
            if found:
                return found
            labels.pop()
        cells.pop()
        done.add(cell)
        return None

    for start in starts:
        found = visit(start)
        if found:
            return found
    return None


def closed_line_path(field: Field) -> tuple | None:
    """A closed L-path of a valid line field as (vertices, edges), rotated
    to start at its least vertex, or None."""
    steps = line_steps(field)
    found = closed_walk(steps, roots(field, steps))
    if found is None:
        return None
    ring, edges = found[0][:-1], found[1]
    m = ring.index(min(ring))
    return ring[m:] + ring[: m + 1], edges[m:] + edges[:m]


def closed_vector_path(field: Field) -> tuple | None:
    """A closed X-path of a valid vector field as (cells, witnesses), or None."""
    steps = vector_steps(field)
    return closed_walk(steps, roots(field, steps))


def chain(field: Field, v: str) -> tuple:
    """The L-path from v across matched edges to an unmatched vertex, as
    (vertices, edges), in an acyclic line field."""
    step = dict(field.matching)
    vertices, edges = [v], []
    while vertices[-1] in step:
        e = step[vertices[-1]]
        tail, head = field.complex.edges[e]
        edges.append(e)
        vertices.append(head if vertices[-1] == tail else tail)
    return tuple(vertices), tuple(edges)


def l_path(field: Field, start: str, end: str) -> tuple | None:
    """The L-path from `start` to `end` as (vertices, edges), or None."""
    vertices, edges = chain(field, start)
    if end not in vertices:
        return None
    k = vertices.index(end)
    return vertices[: k + 1], edges[:k]


def walks(field: Field, cell: str) -> list:
    """Every maximal walk from `cell` along the X-steps of an acyclic
    vector field, as (cells, labels), in step order: a walk ends at a cell
    no pair matches upward, and a matched cell without steps ends none."""
    steps = kept(field, "steps", lambda: vector_steps(field))

    def build():
        if cell not in steps:
            return [((cell,), ())]
        return [((cell, *cells), (label, *labels)) for label, nxt in steps[cell]
                for cells, labels in walks(field, nxt)]

    return kept(field, ("walks", cell), build)


def x_paths(field: Field, start: str, end: str, per_slot: bool = False) -> list:
    """Every X-path from a cell on the boundary of `start` to the critical
    cell `end`, as (cells, labels): by start cell in boundary order, each
    once, or once per slot it holds on `start` when `per_slot` is set, and
    then in step order."""

    def by_end():
        starts = [c for _key, c in boundary(field.complex, start)]
        found: dict = {}
        for cell in starts if per_slot else dict.fromkeys(starts):
            for path in walks(field, cell):
                found.setdefault(path[0][-1], []).append(path)
        return found

    return kept(field, ("x_paths", start, per_slot), by_end).get(end, [])


def critical(field: Field, kind: str) -> set:
    """The critical cells of a "line" or "vector" field: for a line field
    the unmatched vertices and the faces whose unmatched count is not 2,
    for a vector field every cell no pair holds."""
    C = field.complex
    if kind == "line":
        free = unmatched(field)
        return ({v for v in C.vertices if v not in dict(field.matching)}
                | {f for f, at in free.items() if len(at) != 2})
    matched = {c for pair in field.matching for c in pair}
    return {c for cells in (C.vertices, C.edges, C.faces) for c in cells} - matched


def separatrices(field: Field, kind: str) -> list:
    """The edges of the topological graph of an acyclic "line" or "vector"
    field, as (source, target, occurrence, path).  A line field has one
    from each unmatched occurrence of each critical face, by id and then
    position: the L-path from the occurrence's corner.  A vector field has
    one per X-path from each boundary slot of each critical edge or face,
    by id, that ends at a critical cell."""
    C, ends = field.complex, critical(field, kind)
    if kind == "line":
        free = unmatched(field)
        paths = [(f, i, chain(field, source(C, C.faces[f][i])))
                 for f in sorted(ends & C.faces.keys()) for i in free[f]]
        return [(f, path[0][-1], i, path) for f, i, path in paths]
    return [(up, path[0][-1], key, path)
            for up in sorted(c for c in ends if dim(C, c) > 0)
            for key, cell in boundary(C, up)
            for path in walks(field, cell)
            if path[0][-1] in ends]


# ---- corridors --------------------------------------------------------------


def unmatched(field: Field) -> dict:
    """Each face's walk positions holding an edge no pair matches."""
    matched = {e for _v, e in field.matching}
    return {f: [i for i, (_s, e) in enumerate(walk) if e not in matched]
            for f, walk in field.complex.faces.items()}


def slot_map(C: Complex) -> dict:
    """Each edge's (face, position) slots, in sorted face order."""
    slots: dict = {}
    for f in sorted(C.faces):
        for i, (_s, e) in enumerate(C.faces[f]):
            slots.setdefault(e, []).append((f, i))
    return slots


def corridors(field: Field, face: str | None = None) -> tuple:
    """(corridors, closed corridors) of a line field on a closed surface,
    or only the corridors from `face` when one is given.

    A corridor leaves a critical face (one whose unmatched count is not 2)
    through an unmatched occurrence, crosses to the edge's other
    occurrence, and, while the face reached has two unmatched
    occurrences, leaves it through the other one; it ends at a critical
    face.  Corridors come from each critical face in sorted order, from
    each unmatched position in order, as (start, end, crossings,
    interior faces), a crossing being (edge, departure, arrival).  A
    closed corridor is a cycle of such crossings through faces of count
    2 that no corridor passes, traced from its least unpassed occurrence,
    as (faces, crossings)."""
    C = field.complex
    free = kept(field, "unmatched", lambda: unmatched(field))
    slots = kept(field, "slots", lambda: slot_map(C))
    passed: set = set()

    def trace(start):
        crossings, faces, cur = [], [], start
        while True:
            edge = C.faces[cur[0]][cur[1]][1]
            a, b = slots[edge]
            arrive = b if a == cur else a
            passed.update((cur, arrive))
            crossings.append((edge, cur, arrive))
            g, q = arrive
            if len(free[g]) != 2:
                return start[0], g, tuple(crossings), tuple(faces)
            faces.append(g)
            a, b = free[g]
            cur = (g, b if a == q else a)
            if cur == start:
                return tuple(faces), tuple(crossings)

    critical = [f for f in sorted(free) if len(free[f]) != 2 and face in (None, f)]
    open_ = [trace((f, i)) for f in critical for i in free[f]]
    if face is not None:
        return open_, []
    closed = [trace((f, i)) for f in sorted(free) if len(free[f]) == 2
              for i in free[f] if (f, i) not in passed]
    return open_, closed


def regions(open_corridors) -> int:
    """The corridors counted up to direction."""
    keys = set()
    for _f, _g, crossings, _interior in open_corridors:
        key = tuple((a, b) for _e, a, b in crossings)
        back = tuple((b, a) for _e, a, b in reversed(crossings))
        keys.add(min(key, back))
    return len(keys)


# ---- simplification ---------------------------------------------------------


def contraction_order(field: Field) -> list:
    """The matched pairs, each after the pair of its edge's other end: of
    the pairs ready at each point, the least vertex first."""
    edge_of = dict(field.matching)
    left = set(edge_of)
    order = []
    while left:
        v = min(v for v in left if set(field.complex.edges[edge_of[v]]) - {v} - left)
        order.append((v, edge_of[v]))
        left.discard(v)
    return order


def core(field: Field, notes: Counter | None = None):
    """The homotopy core of an acyclic line field, one move at a time:
    contract the pairs in contraction order, then collapse the least
    removable bigon (two distinct edges) until none is left.  Returns
    (field, cell map, degenerate face): the degenerate face is the least
    face a contraction would empty, where contraction stops, or else the
    least bigon left.  Counts in `notes` the branches taken and the shape
    of each collapse, and each contraction whose vertex's other end is
    matched too."""
    notes = Counter() if notes is None else notes
    cur, first_slots = field, slot_map(field.complex)
    mapping = identity(field.complex)
    matched = {v for v, _e in field.matching}
    for v, e in contraction_order(field):
        try:
            cur, step = contract(cur, v, e)
        except Refused:
            notes["degenerate contraction"] += 1
            bad = min(f for f, walk in cur.complex.faces.items() if {x for _s, x in walk} == {e})
            return cur, mapping, bad
        # v's other end is contracted too: v maps down a chain of two or more pairs.
        tail, head = field.complex.edges[e]
        notes["contraction onto a matched vertex"] += (head if v == tail else tail) in matched
        mapping = {c: step[img] for c, img in mapping.items()}
    removable_first = None
    while True:
        faces = cur.complex.faces
        bigons = [f for f in sorted(faces) if len(faces[f]) == 2]
        removable = [f for f in bigons if faces[f][0][1] != faces[f][1][1]]
        if removable_first is None:
            removable_first = set(removable)
        if not removable:
            if bigons:
                notes["bigon degenerated by a collapse" if bigons[0] in removable_first
                      else "degenerate bigon from the start"] += 1
            return cur, mapping, bigons[0] if bigons else None
        f = removable[0]
        (s, gone) = min(faces[f], key=lambda occ: occ[1])
        ((g, j),) = [slot for slot in occurrences(cur.complex, gone) if slot[0] != f]
        same = s == faces[g][j][0]
        notes["same sign" if same else "opposite signs"] += 1
        notes["bigon sorts first" if f < g else "bigon sorts last"] += 1
        notes["same sign, bigon sorts first"] += same and f < g
        notes["into a bigon"] += len(faces[g]) == 2
        if g not in {h for h, _i in first_slots[gone]}:
            notes["collapse into a face that absorbed a bigon"] += 1
        cur, step = collapse(cur, f)
        mapping = {c: step[img] for c, img in mapping.items()}


def merge(field: Field, f: str, g: str, notes: Counter | None = None):
    """Merge the critical faces f and g along the one corridor from f to
    g: delete its crossing edges in turn, the joined face taking the fresh
    id m_<f>_<g>.  Returns the field and the cell map.  Counts in `notes`
    the corridor's shape and how each deletion orders and signs its
    faces."""
    notes = Counter() if notes is None else notes
    C = field.complex
    for x in (f, g):
        if x not in C.faces:
            raise Refused("OperationError", f"{x} is not a face of the complex")
    if f == g:
        raise Refused("OperationError", "cannot merge a face with itself")
    free = kept(field, "unmatched", lambda: unmatched(field))
    for x in (f, g):
        if len(free[x]) == 2:
            raise Refused("OperationError", f"face {x} is not critical")
    hits = [c for c in corridors(field, f)[0] if c[1] == g]
    if not hits:
        raise Refused("CancellationError", f"no corridor from {f} to {g}")
    if len(hits) > 1:
        raise Refused("CancellationError",
                      f"merging needs a unique corridor from {f} to {g}; found {len(hits)}")
    _f, _g, crossings, interior = hits[0]
    if interior:
        notes["merge through interior faces"] += 1
    (merged,) = fresh(C, f"m_{f}_{g}")
    T = C
    for edge, _depart, _arrive in crossings:
        (f1, p1), (f2, p2) = occurrences(T, edge)
        same = T.faces[f1][p1][0] == T.faces[f2][p2][0]
        if merged in (f1, f2):
            if merged == f1:
                notes["merged face sorts first"] += 1
                notes["merged face sorts first, rest reversed"] += same
            else:
                notes["merged face sorts last, its rest reversed"] += same
        T = delete_edge(T, edge, merged)
    mapping = identity(C)
    for cell in (f, g, *interior, *(edge for edge, _a, _b in crossings)):
        mapping[cell] = merged
    return Field(T, field.matching), mapping


def cancel(field: Field, v: str, f: str):
    """Cancel the critical vertex v against the face f of negative index
    in an acyclic line field.  The L-paths from the corners of f must
    reach v from exactly one corner p; that path is reversed, and f is
    split by a diagonal d_<f> from corner p to the first corner q after it
    (not at p's vertex) such that q..p-1 holds two unmatched occurrences.
    The diagonal is matched to p's vertex; the half f_1 holds p..q-1 and
    stands for f, the half f_0 holds q..p-1.  Returns the field and the
    cell map."""
    C = field.complex
    if v not in C.vertices:
        raise Refused("OperationError", f"{v} is not a vertex of the complex")
    if f not in C.faces:
        raise Refused("OperationError", f"{f} is not a face of the complex")
    if v in dict(field.matching):
        raise Refused("OperationError", f"{v} is matched, not critical")
    free = unmatched(field)[f]
    if len(free) < 3:
        raise Refused("OperationError", f"face {f} has doubled index {2 - len(free)};"
                                        " cancellation needs a negative index")
    walk = C.faces[f]
    n = len(walk)
    hits = [p for p in range(n) if chain(field, source(C, walk[p]))[0][-1] == v]
    if not hits:
        raise Refused("CancellationError", f"no path from {f} to {v}")
    if len(hits) > 1:
        raise Refused("CancellationError",
                      f"cancellation needs a unique path from {f} to {v}; found {len(hits)}")
    p = hits[0]
    vertices, edges = chain(field, source(C, walk[p]))
    q = None
    for k in range(1, n):
        cand = (p + k) % n
        count = sum((i - cand) % n < (p - cand) % n for i in free)
        if count < 2:
            break
        if count == 2 and source(C, walk[cand]) != vertices[0]:
            q = cand
            break
    if q is None:
        raise Refused("DegenerateOperationError",
                      f"every admissible diagonal of {f} is a loop at {vertices[0]}")
    diag, entry, off = fresh(C, f"d_{f}", f"{f}_1", f"{f}_0")
    T = split_face(C, f, p, q, diag, entry, off)
    pairs = set(field.matching)
    for i, e in enumerate(edges):
        pairs.discard((vertices[i], e))
        pairs.add((vertices[i + 1], e))
    pairs.add((vertices[0], diag))
    mapping = identity(C)
    mapping[f] = entry
    return Field(T, frozenset(pairs)), mapping


# ---- the radial bridge ------------------------------------------------------


def radial(C: Complex) -> Complex:
    """The radial refinement: a vertex w_<c> on each vertex and face c, an
    edge r_<f>_<i> from corner i's vertex to face f, and a quadrilateral
    q_<e> around each edge e.  q_<e> runs along e's first occurrence, in
    sorted face order and that occurrence's direction, and back along the
    second, against the first's direction along e: each occurrence, walked
    the way the quadrilateral passes it, gives the corner edge at its start
    forwards and the one at its end backwards."""
    vertices = frozenset(f"w_{c}" for c in (*C.vertices, *C.faces))
    edges = {}
    for f in sorted(C.faces):
        for i, occ in enumerate(C.faces[f]):
            edges[f"r_{f}_{i}"] = (f"w_{source(C, occ)}", f"w_{f}")
    faces = {}
    for e in sorted(C.edges):
        walk, first = [], None
        for f, i in occurrences(C, e):
            sign = C.faces[f][i][0]
            here, there = f"r_{f}_{i}", f"r_{f}_{(i + 1) % len(C.faces[f])}"
            if sign == first:
                here, there = there, here
            walk += [(1, here), (-1, there)]
            first = sign
        faces[f"q_{e}"] = rotation(walk)
    return Complex(vertices, edges, faces, f"radial_{C.name}")


def corner(C: Complex, f: str, i: int) -> str:
    return source(C, C.faces[f][i])


def dvf_to_dlf(field: Field) -> Field:
    """The line field of a valid vector field on the radial refinement:
    for each pair, in sorted order, the quadrilateral of its edge is split
    from the first corner on the other cell's radial vertex to the
    opposite corner by a diagonal d_<e>, halves q_<e>_0 and q_<e>_1
    (fresh ids), and the diagonal is matched to that vertex."""
    C = field.complex
    T = radial(C)
    pairs = []
    for lo, up in sorted(field.matching):
        e, other = (lo, up) if lo in C.edges else (up, lo)
        quad = f"q_{e}"
        k = min(i for i in range(4) if corner(T, quad, i) == f"w_{other}")
        diag, half_a, half_b = fresh(T, f"d_{e}", f"{quad}_0", f"{quad}_1")
        T = split_face(T, quad, k, (k + 2) % 4, diag, half_a, half_b)
        pairs.append((f"w_{other}", diag))
    return Field(T, frozenset(pairs))


def colouring(C: Complex):
    """The two classes of a two-colouring of C's 1-skeleton, the class of
    the least vertex first, or None when it has an odd cycle."""
    adjacent: dict = {v: [] for v in C.vertices}
    for tail, head in C.edges.values():
        adjacent[tail].append(head)
        adjacent[head].append(tail)
    colour: dict = {}
    for start in sorted(C.vertices):
        if start in colour:
            continue
        colour[start] = 0
        todo = [start]
        while todo:
            u = todo.pop()
            for x in adjacent[u]:
                if x not in colour:
                    colour[x] = 1 - colour[u]
                    todo.append(x)
                elif colour[x] == colour[u]:
                    return None
    first = frozenset(v for v, c in colour.items() if c == 0)
    return first, C.vertices - first


def is_radial(C: Complex) -> bool:
    """A closed surface of quadrilaterals with a bipartite 1-skeleton and
    one link cycle at every vertex."""
    return (not validate(C) and all(len(walk) == 4 for walk in C.faces.values())
            and colouring(C) is not None
            and all(len(cycles) == 1 for cycles in link_cycles(C).values()))


def factor(R: Complex, own, opposite, pairs, name: str) -> Field:
    """The complex of one vertex class of a radial refinement: each
    quadrilateral an edge between its two corners in `own`, from its
    corner 0 or 1, and each vertex of `opposite` a face that follows its
    link cycle.  A slot (z, i, side) of the cycle crosses edge z from the
    corner beside i, i - 1 for "in" and i + 1 for "out", forwards when that
    corner is the edge's tail.  Pairs are put lower cell first."""
    tail_at = {z: 0 if corner(R, z, 0) in own else 1 for z in R.faces}
    edges = {z: (corner(R, z, k), corner(R, z, k + 2)) for z, k in tail_at.items()}
    links = link_cycles(R)
    faces = {}
    for u in opposite:
        (cycle,) = links[u]
        walk = []
        for z, i, side in cycle:
            start = (i - 1) % 4 if side == "in" else (i + 1) % 4
            walk.append((1 if start == tail_at[z] else -1, z))
        faces[u] = rotation(walk)
    X = Complex(frozenset(own), edges, faces, name)
    lower_first = frozenset((a, b) if dim(X, a) < dim(X, b) else (b, a) for a, b in pairs)
    return Field(X, lower_first)


def dlf_to_dvf(field: Field) -> tuple:
    """The vector-field pair a line field realizes: delete the matched
    diagonals in sorted order, each merging two triangles into a fresh
    m_<d>; what is left must be a radial refinement, whose two vertex
    classes give the primal (<name>_a) and dual (<name>_b) complexes."""
    if validate_line_field(field):
        raise Refused("NotInImageError", "not a valid line field")
    T = field.complex
    quad = {}
    for _v, d in sorted(field.matching, key=lambda pair: pair[1]):
        slots = occurrences(T, d)
        if len(slots) != 2 or slots[0][0] == slots[1][0]:
            raise Refused("NotInImageError", f"matched edge {d} is not a face diagonal")
        if any(len(T.faces[f]) != 3 for f, _i in slots):
            raise Refused("NotInImageError", f"matched edge {d} does not split a quadrilateral")
        (quad[d],) = fresh(T, f"m_{d}")
        T = delete_edge(T, d, quad[d])
    if not is_radial(T):
        raise Refused("NotInImageError", "unmatched edges do not form a radial refinement")
    first, second = colouring(T)
    pairs = [(v, quad[d]) for v, d in field.matching]
    return (factor(T, first, second, pairs, f"{T.name}_a"),
            factor(T, second, first, pairs, f"{T.name}_b"))
