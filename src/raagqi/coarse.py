"""The coarse geometry of the flat space, with no ball: full-edge paths and
cycles, legal and illegal turns, coarse length and distance, parallel sets
and the quarter-plane trichotomy.

A full edge (f, s, f') joins two flats through a singular coset contained
in both.  Open paths and closed cycles of full edges are checked by one
validator and turn by one rule: the turn at a flat between singulars s and
s' is illegal iff s and s' have the same stabilizer.  A sequence computes
its legal-turn flags once; ``turns``, ``classify_turn``, ``coarse_length``,
``FullEdgeCycle.arc_coarse_length`` and the cut searches of ``diagrams``
all read them.

Coarse-distance and parallel-set queries take coset keys and are answered
algebraically, and exactly, from membership in products of star subgroups.
One search, ``words._connections``, finds the walks of the defining graph
that join two flats at a given coarse length; ``coarse_distance``,
``same_parallel_set`` and the cut searches of ``diagrams`` are loops over
it.
"""

from collections import namedtuple
from functools import cached_property

from .graphs import GraphError, orthogonal_complement
from .words import _check_key, _connections, _singular_in_flat, stabilizers_equal

__all__ = [
    "FullEdgePath",
    "FullEdgeCycle",
    "classify_turn",
    "coarse_length",
    "CoarseDistance",
    "coarse_distance",
    "same_parallel_set",
    "classify_parallel_intersection",
    "quarter_plane_case",
]


class _FullEdges:
    """Flats and singulars along full edges: singular i joins flat i to
    flat i + 1, and in a closed sequence the last singular joins the last
    flat back to flat 0."""

    closed = False

    def __init__(self, flats, singulars):
        for k in flats:
            _check_key("flat", k)
        for k in singulars:
            _check_key("singular", k)
        n = len(flats)
        for i, s in enumerate(singulars):
            if not (_singular_in_flat(s, flats[i]) and _singular_in_flat(s, flats[(i + 1) % n])):
                raise GraphError("cells not incident at full edge %d" % i)
        self.flats = flats
        self.singulars = singulars

    @cached_property
    def _legal(self):
        """Whether the turn at flat i, between singulars i - 1 and i, is
        legal: at every flat of a cycle, at flats 1 .. n - 1 of a path with
        n singulars."""
        s = self.singulars
        return [not stabilizers_equal(s[i - 1], s[i]) for i in range(0 if self.closed else 1, len(s))]


class FullEdgePath(_FullEdges):
    """Alternating flat, singular, flat, ... , flat key sequence."""

    def __init__(self, keys):
        keys = list(keys)
        if len(keys) < 3 or len(keys) % 2 == 0:
            raise GraphError("a full-edge path alternates flat/singular and ends on a flat")
        super().__init__(keys[0::2], keys[1::2])
        self.keys = keys

    def turns(self):
        """legal/illegal classification at each interior flat vertex."""
        return ["legal" if legal else "illegal" for legal in self._legal]


class FullEdgeCycle(_FullEdges):
    """Closed alternating sequence f_0, s_0, f_1, s_1, ..., s_{n-1}, (f_0).

    Embedded: all flat vertices distinct and all singular vertices distinct.
    """

    closed = True

    def __init__(self, flats, singulars):
        flats = list(flats)
        singulars = list(singulars)
        if len(flats) != len(singulars) or len(flats) < 3:
            raise GraphError("cycle requires equal flat/singular counts, at least 3")
        super().__init__(flats, singulars)
        n = len(flats)
        if len(set(flats)) != n or len(set(singulars)) != n:
            raise GraphError("cycle required: repeated vertex")

    def __len__(self):
        return len(self.flats)

    @cached_property
    def _legal_prefix(self):
        """Running counts of legal turns over two laps of the cycle, so any
        forward run of turns is one difference."""
        out = [0]
        for legal in self._legal * 2:
            out.append(out[-1] + legal)
        return out

    def arc_coarse_length(self, p, q):
        """Coarse length of the forward cycle arc f_p -> f_q: one plus the
        legal turns at f_{p+1}, ..., f_{q-1}."""
        n = len(self.flats)
        start = p % n + 1
        return self._legal_prefix[start + (q - p - 1) % n] - self._legal_prefix[start] + 1


def classify_turn(e1, e2):
    """Turn type for two full edges (f, s, f') sharing a flat endpoint."""
    f1a, s1, f1b = e1
    f2a, s2, f2b = e2
    shared = {f1a, f1b} & {f2a, f2b}
    if not shared:
        raise GraphError("full edges do not share a flat vertex")
    if (s1, {f1a, f1b}) == (s2, {f2a, f2b}):
        raise GraphError("the two full edges coincide")
    # the turn depends on s1 and s2 alone, so either shared flat serves
    f = shared.pop()
    return FullEdgePath([f1a if f1b == f else f1b, s1, f, s2, f2b if f2a == f else f2a]).turns()[0]


def coarse_length(path):
    """Number of legal turns along the path, plus one."""
    if not isinstance(path, FullEdgePath):
        path = FullEdgePath(path)
    return sum(path._legal) + 1


class CoarseDistance(namedtuple("CoarseDistance", "value certified lower_bound")):
    __slots__ = ()

    def __repr__(self):
        if self.certified:
            return "D=%d" % self.value
        return "unknown(>=%d)" % self.lower_bound


def coarse_distance(f1, f2, max_search=6):
    """Minimal coarse length of a full-edge path between two flat vertices:
    the least m with a connection (see ``words._connections``).  Exact;
    ``unknown`` is only returned past ``max_search``.
    """
    _check_key("flat", f1)
    _check_key("flat", f2)
    if f1 == f2:
        return CoarseDistance(0, True, 0)
    for m in range(1, max_search + 1):
        if next(_connections(f1, f2, m), None) is not None:
            return CoarseDistance(m, True, m)
    return CoarseDistance(max_search + 1, False, max_search + 1)


def same_parallel_set(f1, f2):
    """Whether two distinct standard flats lie in a common parallel set:
    a connection of coarse length 1."""
    return coarse_distance(f1, f2, 1).value == 1


# ---------------------------------------------------------------------------
# parallel-set intersections and quarter-plane labels
# ---------------------------------------------------------------------------

def classify_parallel_intersection(graph, u, v):
    """How the parallel sets of two standard geodesics through a common point
    meet: 'equal', a 'standard_flat', or 'small'."""
    for x in (u, v):
        if not graph.has_vertex(x):
            raise GraphError("unknown vertex %r" % (x,))
    if u == v:
        return "equal"
    if graph.has_edge(u, v):
        return "standard_flat"
    return "small"


def quarter_plane_case(graph, label_alpha, label_beta):
    """Trichotomy for a quarter-plane label (a join of two vertex sets),
    decided by the sizes of the orthogonal complements."""
    alpha = set(label_alpha)
    beta = set(label_beta)
    if not alpha or not beta:
        raise GraphError("quarter-plane labels must be nonempty")
    if alpha & beta:
        raise GraphError("quarter-plane label sides must be disjoint")
    for a in alpha:
        for b in beta:
            if not graph.has_edge(a, b):
                raise GraphError("label is not a join: {%s,%s} not an edge" % (a, b))
    na = len(orthogonal_complement(graph, alpha))
    nb = len(orthogonal_complement(graph, beta))
    if na == 1 and nb == 1:
        return "case1"
    if (na == 1) != (nb == 1):
        return "case2"
    return "case3"
