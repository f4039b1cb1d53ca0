"""Graph isomorphism and |Aut| by individualization-refinement.

The scheme of McKay and Piperno ("Practical graph isomorphism II",
J. Symb. Comput. 2014), cut down to what the rigidity questions need.  A
graph is the tuple of neighbour bitmasks of ``DefiningGraph.masks``.

A colouring is an ordered partition of the positions 0..n-1: ``cells[s]``
is the vertex bitmask of the cell that starts at position s (0 inside a
cell), and ``big`` lists the starts of the non-singleton cells in order.  A
cell is named by its start, so cells mean the same on two graphs and each
graph is refined alone; where positions are paired, a cell lists its
vertices in ascending order.  Refinement takes splitter cells from a queue.
A splitter S splits each non-singleton cell that holds a neighbour of S by
the number of neighbours each vertex has in S, with the fragments ordered by
that count.  The counts are one AND for a singleton S, and otherwise sums of
neighbour masks kept as bit slices.  Every fragment but the largest is
queued, or all of them if the split cell was queued.  Every non-singleton
cell a splitter hits adds (splitter, cell, counts, sizes) to a trace.

The first path starts from the unit partition and individualizes the lowest
vertex of the smallest non-singleton cell (the first such on ties) until
the partition is discrete.  It is computed once per graph.  The other side
(a second graph, or the same graph with another vertex individualized) is
searched against it by a loop over right nodes.  A right node is refined
with the first path's trace at its depth as reference and is dropped at the
first step where its trace departs from it.  At each right node the cells
are paired position by position with the first path's node, and that map
is tried; a map is accepted only if it sends every neighbour mask onto the
mask of the image vertex.

|Aut| is the product, up the first path, of the orbit of each
individualized vertex under the automorphisms that fix the vertices
individualized before it.  Going up the path, every automorphism found so
far fixes those vertices, so union-find over all of them gives the orbits.
An image is searched for only if it is neither in the orbit nor in the
orbit of an image whose search failed.
"""

from .graphs import _bits


def _refine(masks, cells, big, queue, trace, ref=None):
    """Refine the partition (cells, big) in place, from the splitter starts
    in queue, to the coarsest equitable partition finer than it.  Appends
    an entry to trace for every non-singleton cell a splitter hits.  With
    ref, returns False at the first entry that differs from ref's, and True
    only if the two traces are equal."""
    queued = set(queue)
    head = 0
    while head < len(queue) and big:
        s = queue[head]
        head += 1
        queued.discard(s)
        splitter = cells[s]
        one = not splitter & (splitter - 1)
        if one:
            nbr = masks[splitter.bit_length() - 1]
        else:
            # slices[j] holds the vertices whose count has bit j set
            nbr, slices = 0, []
            for v in _bits(splitter):
                carry = masks[v]
                nbr |= carry
                for j, bits in enumerate(slices):
                    slices[j], carry = bits ^ carry, bits & carry
                    if not carry:
                        break
                else:
                    slices.append(carry)
        for c in [c for c in big if cells[c] & nbr]:
            cell = cells[c]
            if one:
                # counts 0 and 1: the neighbours of the splitter come last
                near = cell & nbr
                frags = [cell ^ near, near] if near != cell else [cell]
                entry = (s, c, near.bit_count())
            else:
                groups = [(0, cell)]
                for j, bits in enumerate(slices):
                    if cell & bits:
                        split = []
                        for k, g in groups:
                            if g & ~bits:
                                split.append((k, g & ~bits))
                            if g & bits:
                                split.append((k | 1 << j, g & bits))
                        groups = split
                groups.sort()
                frags = [g for _, g in groups]
                entry = (s, c, [k for k, _ in groups], [f.bit_count() for f in frags])
            if ref is not None and (len(trace) == len(ref) or ref[len(trace)] != entry):
                return False
            trace.append(entry)
            if len(frags) == 1:
                continue
            sizes = [f.bit_count() for f in frags]
            keep = None if c in queued else sizes.index(max(sizes))
            starts = []
            p = c
            for i, f in enumerate(frags):
                cells[p] = f
                if sizes[i] > 1:
                    starts.append(p)
                if i != keep and p not in queued:
                    queue.append(p)
                    queued.add(p)
                p += sizes[i]
            i = big.index(c)
            big[i:i + 1] = starts
    return ref is None or len(trace) == len(ref)


def _individualize(cells, big, t, v):
    """Split v off the front of the cell that starts at t."""
    cell = cells[t]
    cells[t], cells[t + 1] = 1 << v, cell ^ 1 << v
    i = big.index(t)
    big[i:i + 1] = [t + 1] if cell.bit_count() > 2 else []


def _target(cells, big):
    """The start of the smallest non-singleton cell, the first on ties; None
    for a discrete partition."""
    return min(big, key=lambda c: cells[c].bit_count()) if big else None


def _root(masks, ref=None):
    """The unit partition refined, and its trace; None if it departs from
    ref."""
    n = len(masks)
    node = [(1 << n) - 1] + [0] * (n - 1), [0] if n > 1 else []
    trace = []
    if not _refine(masks, *node, [0], trace, ref):
        return None
    return node, trace


def _first_path(masks):
    """The first path of a graph with at least one vertex: its nodes, the
    start of each non-leaf node's target cell, and the trace that refined
    each node."""
    node, trace = _root(masks)
    nodes, targets, traces = [node], [], [trace]
    t = _target(*node)
    while t is not None:
        cells, big = node[0][:], node[1][:]
        _individualize(cells, big, t, (cells[t] & -cells[t]).bit_length() - 1)
        trace = []
        _refine(masks, cells, big, [t], trace)
        node = cells, big
        targets.append(t)
        nodes.append(node)
        traces.append(trace)
        t = _target(cells, big)
    return nodes, targets, traces


def _mapping(nbrs1, masks2, left, right):
    """The map that pairs the cells of the partition left of graph 1 with
    those of right of graph 2 position by position, as a list of image
    positions, if it sends every neighbour mask of graph 1 onto the mask of
    the image vertex in graph 2; else None."""
    n = len(left)
    perm = [0] * n
    p = 0
    while p < n:
        a, b = left[p], right[p]
        if a & (a - 1):
            for x, y in zip(_bits(a), _bits(b)):
                perm[x] = y
            p += a.bit_count()
        else:
            perm[a.bit_length() - 1] = b.bit_length() - 1
            p += 1
    for v, ns in enumerate(nbrs1):
        m = 0
        for u in ns:
            m |= 1 << perm[u]
        if m != masks2[perm[v]]:
            return None
    return perm


def _search(nbrs1, path, masks2, depth, node, cands):
    """A map from graph 1 to graph 2, or None.  node is a partition of
    graph 2 that matches the first path's node at depth; each vertex of
    cands is individualized in its target cell in turn, and the search goes
    on down from the right nodes whose traces match the first path's."""
    nodes, targets, traces = path
    stack = [(depth, node, iter(cands))]
    while stack:
        d, node, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            continue
        t = targets[d]
        cells, big = node[0][:], node[1][:]
        _individualize(cells, big, t, w)
        if not _refine(masks2, cells, big, [t], [], traces[d + 1]):
            continue
        perm = _mapping(nbrs1, masks2, nodes[d + 1][0], cells)
        if perm is not None:
            return perm
        if big:
            stack.append((d + 1, (cells, big), iter(_bits(cells[targets[d + 1]]))))
    return None


def isomorphism(masks1, masks2):
    """An isomorphism from the graph with neighbour masks masks1 to the one
    with masks2, as a list of image positions, or None."""
    if len(masks1) != len(masks2):
        return None
    if not masks1:
        return []
    path = _first_path(masks1)
    nodes, targets, traces = path
    right = _root(masks2, traces[0])
    if right is None:
        return None
    (cells, big), _ = right
    nbrs1 = [_bits(m) for m in masks1]
    perm = _mapping(nbrs1, masks2, nodes[0][0], cells)
    if perm is not None or not big:
        return perm
    return _search(nbrs1, path, masks2, 0, (cells, big), _bits(cells[targets[0]]))


def automorphism_group_order(masks):
    """|Aut| of the graph with neighbour masks masks."""
    if not masks:
        return 1
    path = _first_path(masks)
    nodes, targets, _ = path
    nbrs = [_bits(m) for m in masks]
    parent = list(range(len(masks)))
    orbit = [1] * len(masks)

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    order = 1
    for d in reversed(range(len(targets))):
        v, *cell = _bits(nodes[d][0][targets[d]])
        failed = []
        for w in cell:
            rw = find(w)
            if rw == find(v) or any(find(f) == rw for f in failed):
                continue
            perm = _search(nbrs, path, masks, d, nodes[d], [w])
            if perm is None:
                failed.append(w)
                continue
            for x, y in enumerate(perm):
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[ry] = rx
                    orbit[rx] += orbit[ry]
        order *= orbit[find(v)]
    return order
