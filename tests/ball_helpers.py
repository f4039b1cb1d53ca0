"""Lookups on a ``FlatBall`` that only the tests need, read off its cell
table and sorted edge list."""

import functools
import weakref
from bisect import bisect_left

from raagqi.graphs import GraphError
from raagqi.words import _KINDS


def _per_ball(fn):
    """Cache fn(ball) for as long as the ball lives."""
    memo = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def get(ball):
        if ball not in memo:
            memo[ball] = fn(ball)
        return memo[ball]

    return get


@_per_ball
def vkeys(ball):
    """Each cell's ``(gens, codes)`` key, in cell order."""
    cones, slot_gens = ball._cone_codes, ball._slot_gens
    return [(slot_gens[s], cones[c]) for c, s in zip(ball._cell_cone, ball._cell_slot)]


@_per_ball
def _slots_and_cones(ball):
    return {g: s for s, g in enumerate(ball._slot_gens)}, {codes: c for c, codes in enumerate(ball._cone_codes)}


def find(ball, key):
    """Index of a CosetKey in the ball, or -1."""
    slots, cones = _slots_and_cones(ball)
    slot, c = slots.get(key.gens), cones.get(key.rep.codes)
    if slot is None or c is None:
        return -1
    i = ball._cell[c * ball._nslots + slot]
    return i if ball._cell_cone[i] == c else -1


def edge_id(ball, i, j):
    """The id of the edge between cells i and j."""
    lo, hi = (i, j) if i < j else (j, i)
    enc = lo * ball.nvertices + hi
    codes = ball._edges[0]
    p = bisect_left(codes, enc)
    if p >= len(codes) or codes[p] != enc:
        raise GraphError("edge not present in ball")
    return p


@_per_ball
def incident_edges(ball):
    """Each cell's (edge id, other end) pairs: the edges it is the lower end
    of, then those it is the upper end of, each by edge id."""
    lower = [[] for _ in range(ball.nvertices)]
    upper = [[] for _ in range(ball.nvertices)]
    for e, (lo, hi) in enumerate(zip(ball.edge_lo, ball.edge_hi)):
        lower[lo].append((e, hi))
        upper[hi].append((e, lo))
    return [a + b for a, b in zip(lower, upper)]


def vertices_by_kind(ball, kind):
    k = _KINDS.index(kind)
    return [i for i, s in enumerate(ball._cell_slot) if ball._slot_kind[s] == k]


def is_interior(ball, i):
    """Conservative interior flag: the cells this vertex's link needs are
    guaranteed present."""
    return ball._cell_slot[i] == 0 or i in ball._interior
