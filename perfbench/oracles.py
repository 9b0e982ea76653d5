"""Per-job output checks, written apart from the library code they check.

Everything here works on plain cell dictionaries (vertices, edges, faces)
and iterates; nothing recurses per path step, so the checks run at sizes
where the library's recursive path code cannot.  Each check raises
OracleError with a message naming the first disagreement.
"""

from __future__ import annotations

import re


class OracleError(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise OracleError(message)


def chi(S) -> int:
    return len(S.vertices) - len(S.edges) + len(S.faces)


def other_end(edges, e, v):
    t, h = edges[e]
    return h if v == t else t


def corner(edges, occ) -> str:
    """The vertex an occurrence leaves from."""
    sign, e = occ
    t, h = edges[e]
    return t if sign > 0 else h


def is_closed_surface(S) -> bool:
    """Each edge twice, each walk chains, incidence connected."""
    uses = dict.fromkeys(S.edges, 0)
    for walk in S.faces.values():
        for _s, e in walk:
            uses[e] += 1
        n = len(walk)
        for i in range(n):
            sign, e = walk[i]
            t, h = S.edges[e]
            if (h if sign > 0 else t) != corner(S.edges, walk[(i + 1) % n]):
                return False
    if any(c != 2 for c in uses.values()):
        return False
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != root:
            parent[x], x = root, parent[x]
        return root

    for e, (t, h) in S.edges.items():
        parent[find(t)] = find(e)
        parent[find(h)] = find(e)
    for f, walk in S.faces.items():
        for _s, e in walk:
            parent[find(f)] = find(e)
    cells = list(S.vertices) + list(S.edges) + list(S.faces)
    return len({find(c) for c in cells}) == 1


# ---- line fields -------------------------------------------------------------


def lf_critical(S, matching) -> dict[str, int]:
    matched_v = {v for v, _e in matching}
    matched_e = {e for _v, e in matching}
    out = {v: 2 for v in S.vertices if v not in matched_v}
    for f, walk in S.faces.items():
        c = sum(1 for _s, e in walk if e not in matched_e)
        if c != 2:
            out[f] = 2 - c
    return out


def lf_step(S, matching) -> dict[str, str]:
    return {v: other_end(S.edges, e, v) for v, e in matching}


def has_cycle(succ: dict) -> bool:
    """Whether following a partial successor map ever revisits a node."""
    state: dict = {}
    for start in succ:
        path = []
        node = start
        while node in succ and node not in state:
            state[node] = 1
            path.append(node)
            node = succ[node]
        if state.get(node) == 1:
            return True
        for p in path:
            state[p] = 2
    return False


def chain_ends(step: dict[str, str], starts) -> dict[str, str]:
    ends: dict[str, str] = {}
    for s in starts:
        path = [s]
        while path[-1] in step and path[-1] not in ends:
            path.append(step[path[-1]])
        end = ends.get(path[-1], path[-1])
        for p in path:
            ends[p] = end
    return ends


def check_l_witness(S, matching, witness):
    cells, steps = witness.vertices, witness.edges
    require(len(cells) > 1 and cells[0] == cells[-1], "L-path witness is not closed")
    require(len(steps) == len(cells) - 1, "L-path witness lengths disagree")
    for i, e in enumerate(steps):
        require((cells[i], e) in matching, f"witness step {cells[i]}-{e} is not matched")
        require(other_end(S.edges, e, cells[i]) == cells[i + 1], f"witness breaks at {e}")


def corridors(S, matching) -> list[tuple[str, int, str, list[str]]]:
    """(start face, position, end face, crossed edges) for every corridor."""
    matched = {e for _v, e in matching}
    slots: dict[str, list[tuple[str, int]]] = {}
    unmatched: dict[str, list[int]] = {}
    for f, walk in S.faces.items():
        unmatched[f] = [i for i, (_s, e) in enumerate(walk) if e not in matched]
        for i in unmatched[f]:
            slots.setdefault(walk[i][1], []).append((f, i))
    out = []
    for f, positions in unmatched.items():
        if len(positions) == 2:
            continue
        for i in positions:
            cur = (f, i)
            crossed = []
            while True:
                e = S.faces[cur[0]][cur[1]][1]
                crossed.append(e)
                a, b = slots[e]
                arrive = b if a == cur else a
                g = arrive[0]
                if len(unmatched[g]) != 2:
                    out.append((f, i, g, crossed))
                    break
                p, q = unmatched[g]
                cur = (g, q if arrive[1] == p else p)
    return out


def check_decomposition(S, matching, crit, report):
    """Separatrix and corridor counts, and every separatrix target."""
    matched = {e for _v, e in matching}
    expected = {
        f: [i for i, (_s, e) in enumerate(S.faces[f]) if e not in matched]
        for f in crit
        if f in S.faces
    }
    total = sum(len(p) for p in expected.values())
    seps = report.graph.edges
    require(len(seps) == total, f"{len(seps)} separatrices, expected {total}")
    require(len(report.corridors) == total, f"{len(report.corridors)} corridors, expected {total}")
    step = lf_step(S, matching)
    ends = chain_ends(step, [corner(S.edges, S.faces[s.source][s.occurrence]) for s in seps])
    for s in seps:
        require(s.occurrence in expected.get(s.source, ()), f"separatrix from matched slot {s}")
        start = corner(S.edges, S.faces[s.source][s.occurrence])
        require(ends[start] == s.target, f"separatrix {s.source}:{s.occurrence} ends wrong")
    require(report.graph.vertices == tuple(sorted(crit)), "graph vertices are not the critical cells")


_DOT_NODE = re.compile(r'^  "([^"]+)" \[shape=\w+, label="[^"]*"\];$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)";$')


def check_graph_text(fmt, text, graph, parse_graph_json):
    """The emitted report or DOT carries exactly the graph's cells and arcs."""
    arcs = [(s.source, s.target) for s in graph.edges]
    if fmt == "json":
        back = parse_graph_json(text)
        require(back.vertices == graph.vertices, "report_json critical cells do not round-trip")
        got = [(s.source, s.target, s.occurrence) for s in back.edges]
        want = [(s.source, s.target, s.occurrence) for s in graph.edges]
        require(got == want, "report_json separatrices do not round-trip")
        return
    lines = text.splitlines()
    require(lines[0] == "digraph topological_graph {" and lines[-1] == "}", "DOT frame")
    nodes = [m.group(1) for m in map(_DOT_NODE.match, lines[1:-1]) if m]
    edges = [(m.group(1), m.group(2)) for m in map(_DOT_EDGE.match, lines[1:-1]) if m]
    require(len(nodes) + len(edges) == len(lines) - 2, "DOT has unrecognized lines")
    require(tuple(nodes) == graph.vertices, "DOT nodes are not the critical cells")
    require(edges == arcs, "DOT arcs differ from the separatrices")


# ---- vector fields -------------------------------------------------------------


def dim_map(S) -> dict[str, int]:
    out = dict.fromkeys(S.vertices, 0)
    out.update(dict.fromkeys(S.edges, 1))
    out.update(dict.fromkeys(S.faces, 2))
    return out


def vf_critical(S, matching) -> dict[str, int]:
    matched = {c for pair in matching for c in pair}
    return {c: (1, -1, 1)[d] for c, d in dim_map(S).items() if c not in matched}


def boundary(S, cell) -> list[tuple[int, str]]:
    if cell in S.edges:
        t, h = S.edges[cell]
        return [(0, t), (1, h)]
    return [(i, e) for i, (_s, e) in enumerate(S.faces[cell])]


def x_successors(S, matching) -> dict[str, list[tuple[str, int, str]]]:
    """lower -> [(partner, key, next cell)] for every upward-matched cell."""
    return {
        lo: [(up, k, c) for k, c in boundary(S, up) if c != lo] for lo, up in matching
    }


def x_cycle(succ) -> bool:
    state: dict = {}
    for root in succ:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for _u, _k, nxt in it:
                s = state.get(nxt)
                if s == 1:
                    return True
                if s is None and nxt in succ:
                    state[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                state[node] = 2
                stack.pop()
    return False


def x_path_counts(succ, targets) -> dict[str, int]:
    """Paths from each cell to a cell of `targets`, by an iterative DP in
    post-order over the acyclic step relation."""
    ways: dict[str, int] = {}

    def value(c):
        return ways[c] if c in succ else int(c in targets)

    for root in succ:
        if root in ways:
            continue
        stack = [root]
        while stack:
            node = stack[-1]
            pending = [n for _u, _k, n in succ[node] if n in succ and n not in ways]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            ways[node] = sum(value(n) for _u, _k, n in succ[node])
    return {c: value(c) for c in set(ways) | set(targets)}


def x_count(S, succ, source, target) -> int:
    ways = x_path_counts(succ, {target})
    starts = dict.fromkeys(c for _k, c in boundary(S, source))
    return sum(ways.get(c, int(c == target)) for c in starts)


def separatrix_total(S, succ, crit) -> int:
    ways = x_path_counts(succ, set(crit))
    total = 0
    for upper in crit:
        if upper in S.vertices:
            continue
        for _k, c in boundary(S, upper):
            total += ways.get(c, int(c in crit))
    return total


def check_x_witness(S, matching, witness):
    cells, steps = witness.cells, witness.witnesses
    require(len(cells) > 1 and cells[0] == cells[-1], "X-path witness is not closed")
    require(len(steps) == len(cells) - 1, "X-path witness lengths disagree")
    for i, (tau, key) in enumerate(steps):
        require((cells[i], tau) in matching, f"witness pair {cells[i]}-{tau} is not matched")
        bd = dict(boundary(S, tau))
        require(bd.get(key) == cells[i + 1] != cells[i], f"witness slot {tau}:{key} is wrong")


# ---- simplification ------------------------------------------------------------


def check_core(S, matching, result):
    """Empty core matching; critical cells map one-to-one, same index."""
    core = result.field
    require(not core.matching, "core matching is not empty")
    before = lf_critical(S, matching)
    after = lf_critical(core.complex, core.matching)
    mapping = result.correspondence.mapping
    images = {mapping[c]: c for c in before}
    require(len(images) == len(before), "critical cells collide in the core")
    require(set(images) == set(after), "core critical cells are not the images")
    for img, c in images.items():
        require(after[img] == before[c], f"index of {c} changed in the core")
    require(chi(core.complex) == chi(S), "core changed the Euler characteristic")
    if result.degenerate_face is not None:
        walk = core.complex.faces[result.degenerate_face]
        require(len({e for _s, e in walk}) == 1, "degenerate face is removable")


def pick_merge(S, matching, rng):
    """Critical faces (f, g) joined by exactly one corridor whose deletion
    leaves every vertex an edge; None if there is none."""
    by_pair: dict[tuple[str, str], list[list[str]]] = {}
    for f, _i, g, crossed in corridors(S, matching):
        if f != g:
            by_pair.setdefault((f, g), []).append(crossed)
    unique = sorted(p for p, hits in by_pair.items() if len(hits) == 1)
    rng.shuffle(unique)
    edges_at: dict[str, set] = {v: set() for v in S.vertices}
    for e, (t, h) in S.edges.items():
        edges_at[t].add(e)
        edges_at[h].add(e)
    for f, g in unique:
        gone = set(by_pair[(f, g)][0])
        if all(edges_at[v] - gone for e in gone for v in S.edges[e]):
            return f, g
    return None


def pick_cancel(S, matching, rng):
    """(v, f): a face of negative index whose corner chains reach the
    critical vertex v exactly once, with an admissible diagonal."""
    matched = {e for _v, e in matching}
    step = lf_step(S, matching)
    crit = lf_critical(S, matching)
    faces = sorted(f for f in crit if f in S.faces and crit[f] < 0)
    rng.shuffle(faces)
    for f in faces[:20]:
        walk = S.faces[f]
        n = len(walk)
        starts = [corner(S.edges, o) for o in walk]
        ends = chain_ends(step, starts)
        hits: dict[str, list[int]] = {}
        for p, u in enumerate(starts):
            hits.setdefault(ends[u], []).append(p)
        for v in sorted(hits):
            if len(hits[v]) != 1:
                continue
            p = hits[v][0]
            u1 = starts[p]
            for k in range(1, n):
                q = (p + k) % n
                count = sum(1 for j in range((p - q) % n) if walk[(q + j) % n][1] not in matched)
                if count < 2:
                    break
                if count == 2 and starts[q] != u1:
                    return v, f
    return None


def check_merge(S, matching, f, g, field, correspondence):
    mapping = correspondence.mapping
    merged = mapping[f]
    require(mapping[g] == merged, "merged faces map apart")
    require(is_closed_surface(field.complex), "merge broke the surface")
    before = lf_critical(S, matching)
    after = lf_critical(field.complex, field.matching)
    require(after.get(merged, 0) == before[f] + before[g], "merged face index is not the sum")
    for c, idx in before.items():
        if c not in (f, g):
            require(after.get(mapping[c]) == idx, f"merge moved critical cell {c}")
    require(len(after) == len(before) - 1 - (before[f] + before[g] == 0), "merge count")


def check_cancel(S, matching, v, f, field, correspondence):
    T = field.complex
    require(is_closed_surface(T), "cancellation broke the surface")
    require(not has_cycle(lf_step(T, field.matching)), "cancellation closed a path")
    before = lf_critical(S, matching)
    after = lf_critical(T, field.matching)
    entry = correspondence.mapping[f]
    require(v not in after, f"{v} is still critical")
    require(after.get(entry, 0) == before[f] + 2, "cancelled face index is wrong")
    for c, idx in before.items():
        if c not in (v, f):
            require(after.get(c) == idx, f"cancellation moved critical cell {c}")
    require(sum(after.values()) == 2 * chi(T), "Euler sum after cancellation")


# ---- radial bridge ---------------------------------------------------------------


def _origin(cell: str) -> str:
    for prefix in ("w_", "q_", "m_d_"):
        if cell.startswith(prefix):
            return cell[len(prefix):]
    raise OracleError(f"radial cell {cell} has no origin label")


def check_radial_line_field(S, matching, L):
    """Sizes of the refinement, one matched diagonal per pair, Euler sum."""
    R = L.complex
    walk_total = sum(len(w) for w in S.faces.values())
    k = len(matching)
    sizes = (len(R.vertices), len(R.edges), len(R.faces))
    want = (len(S.vertices) + len(S.faces), walk_total + k, len(S.edges) + k)
    require(sizes == want, f"refinement has V, E, F = {sizes}, expected {want}")
    pairs = {(_origin(a), b) for a, b in L.matching}
    for lo, up in matching:
        e, other = (lo, up) if lo in S.edges else (up, lo)
        require((other, f"d_{e}") in pairs, f"pair ({lo}, {up}) lost its diagonal")
    require(len(L.matching) == k, "matched diagonal count differs")
    require(sum(lf_critical(R, L.matching).values()) == 2 * chi(S), "radial Euler sum")


def check_factors(S, matching, primal, dual):
    """Relabel w_<cell>, q_<edge> and m_d_<edge> back to the input cells:
    the primal factor must be the input field, the dual its dual."""
    a, b = primal, dual
    if {_origin(v) for v in a.complex.vertices} != set(S.vertices):
        a, b = b, a
    P, D = a.complex, b.complex
    require({_origin(v) for v in P.vertices} == set(S.vertices), "no factor on the vertices")
    require({_origin(v) for v in D.vertices} == set(S.faces), "dual factor vertices")
    relabel = {lo: _origin(lo) for pair in a.matching for lo in pair}
    got = {(relabel[lo], relabel[up]) for lo, up in a.matching}
    require(got == set(matching), "primal factor matching differs from the input")
    flip = {}
    for z, (t, h) in P.edges.items():
        e = _origin(z)
        pair = (_origin(t), _origin(h))
        require(pair in (S.edges[e], S.edges[e][::-1]), f"edge {e} changed endpoints")
        flip[z] = pair != S.edges[e]
    for u, walk in P.faces.items():
        f = _origin(u)
        mine = tuple((-s if flip[z] else s, _origin(z)) for s, z in walk)
        require(_same_cycle(mine, S.faces[f]), f"face {f} walk differs after relabeling")
    incident: dict[str, set] = {e: set() for e in S.edges}
    for f, walk in S.faces.items():
        for occ in walk:
            incident[occ[1]].add(f)
    ends: dict[str, list[str]] = {v: [] for v in S.vertices}
    for e, (t, h) in S.edges.items():
        ends[t].append(e)
        ends[h].append(e)
    require(is_closed_surface(D), "dual factor is not a closed surface")
    for z, (t, h) in D.edges.items():
        require({_origin(t), _origin(h)} == incident[_origin(z)], f"dual edge {z} endpoints")
    for u, walk in D.faces.items():
        around = sorted(_origin(z) for _s, z in walk)
        require(around == sorted(ends[_origin(u)]), f"dual face {u} is not the link of its vertex")
    dual_pairs = {(_origin(lo), _origin(up)) for lo, up in b.matching}
    require(dual_pairs == {(up, lo) for lo, up in matching}, "dual factor matching differs")


def _same_cycle(walk, target) -> bool:
    if len(walk) != len(target):
        return False
    rev = tuple((-s, e) for s, e in reversed(walk))
    doubled = target + target
    n = len(target)
    return any(doubled[i : i + n] in (walk, rev) for i in range(n))
