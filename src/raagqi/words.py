"""RAAG word algebra: canonical normal forms and special-subgroup cosets.

Elements are stored in shortlex normal form over the sorted vertex order of
the defining graph: fully cancelled, and lexicographically least among all
words reachable by swapping adjacent letters whose generators are adjacent in
the graph.  Two elements are equal in the group iff their stored words agree.

A ``WordContext`` takes the generator order, index and commutation masks
from its graph and adds the star masks and one table for the connection
search (below).  Normal forms and stripped representatives are computed
on each call, with no cache: on lifts through the identity fundamental
domain every flat and singular has the empty representative, and the
empty word returns at once.
``context_for`` hands out one context per graph (equal graphs share it)
and holds it weakly: a context lives as long as some element, coset key
or ball uses it, so a long session keeps only the contexts in use.

A cell of the flat space has one key, ``CosetKey``: the named pair
(gens, rep) of its generators (none, one, or a sorted edge) and its
stripped representative.  Its kind, cone, singular or flat, is read off
the number of generators, and keys compare as tuples.  The coset algebra
of the flat space lives here too, on normal forms and bitmasks alone:
containment of a singular coset in a flat, equality of singular
stabilizers, and ``_connections``, the one search for full-edge
connections between two flats behind turns, coarse distances and cuts.

The walk table is bounded: ``WordContext.walks`` keeps the walks of
length <= WALKS_KEPT = 3 from each generator, in sorted order;
``coarse_distance`` asks for walks up to length 6 (16,807 from each start
on the Hoffman-Singleton graph), which are built on each call.
"""

import weakref
from collections import namedtuple
from operator import itemgetter

from . import _kernels
from .graphs import GraphError

__all__ = [
    "WordContext",
    "GroupElement",
    "CosetKey",
    "context_for",
    "normal_form",
    "identity",
    "generator",
    "multiply",
    "invert",
    "in_special_subgroup",
    "in_subgroup_product",
    "coset_key",
    "singular_key",
    "flat_key",
    "stabilizers_equal",
    "parse_word",
    "cayley_ball",
    "syllable_ball",
]

_context_cache = weakref.WeakValueDictionary()

# walks up to this length are kept per context: the cut searches need no
# longer ones
WALKS_KEPT = 3


class WordContext:
    """Generator order, letter codes and commutation masks for one graph."""

    def __init__(self, graph):
        self.graph = graph
        self.generators = graph.order
        self.index = graph.index
        self.comm_masks = graph.masks
        self.star_masks = [m | (1 << i) for i, m in enumerate(graph.masks)]
        self._walks = {}

    def gen_mask(self, names):
        m = 0
        for v in names:
            if v not in self.index:
                raise GraphError("unknown generator %r" % (v,))
            m |= 1 << self.index[v]
        return m

    def nf(self, codes):
        if not codes:
            return ()
        return tuple(_kernels.normal_form_codes(list(codes), self.comm_masks))

    def strip(self, codes, mask):
        if not codes:
            return ()
        return tuple(_kernels.strip_coset_codes(list(codes), self.comm_masks, mask))

    def quotient(self, p, q):
        """The normal form of p^-1 q, for normal forms p and q."""
        return () if p == q else self.nf(_inverse_codes(p) + q)

    def walks(self, t, m):
        """The walks t_1 .. t_m of the defining graph (consecutive vertices
        adjacent) with t_1 the generator of index t, in sorted order, each
        as (names, index of t_m, star masks of t_1 .. t_m).  Kept for
        m <= WALKS_KEPT."""
        hit = self._walks.get((t, m))
        if hit is None:
            if m == 1:
                hit = (((self.generators[t],), t, (self.star_masks[t],)),)
            else:
                gens, stars, comm = self.generators, self.star_masks, self.comm_masks
                hit = tuple(
                    (names + (gens[u],), u, masks + (stars[u],))
                    for names, end, masks in self.walks(t, m - 1)
                    for u in range(comm[end].bit_length())
                    if comm[end] >> u & 1
                )
            if m <= WALKS_KEPT:
                self._walks[t, m] = hit
        return hit


def context_for(graph):
    ctx = _context_cache.get(graph)
    if ctx is None:
        ctx = _context_cache[graph] = WordContext(graph)
    return ctx


class GroupElement:
    """A group element held in canonical normal form."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx, codes, _canonical=False):
        self.ctx = ctx
        self.codes = tuple(codes) if _canonical else ctx.nf(codes)

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise GraphError("elements live over different defining graphs")
        return GroupElement(self.ctx, self.codes + other.codes)

    def inverse(self):
        return GroupElement(self.ctx, _inverse_codes(self.codes))

    def __pow__(self, k):
        # one normalization: the kernel inserts or cancels letter by letter
        base = self if k >= 0 else self.inverse()
        return GroupElement(self.ctx, base.codes * abs(k))

    # -- structure ----------------------------------------------------------

    def __len__(self):
        return len(self.codes)

    @property
    def is_identity(self):
        return not self.codes

    def support(self):
        gens = self.ctx.generators
        return {gens[_kernels.letter_gen(c)] for c in self.codes}

    def letters(self):
        gens = self.ctx.generators
        return [(gens[_kernels.letter_gen(c)], _kernels.letter_sign(c)) for c in self.codes]

    def word_str(self):
        if not self.codes:
            return "1"
        return " ".join(g if s > 0 else g + "^-1" for g, s in self.letters())

    # -- identity axioms ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.ctx is other.ctx
            and self.codes == other.codes
        )

    def __hash__(self):
        return hash((id(self.ctx), self.codes))

    def __lt__(self, other):
        return (len(self.codes), self.codes) < (len(other.codes), other.codes)

    def __repr__(self):
        return "<%s>" % self.word_str()


def _inverse_codes(codes):
    """The inverse of a normal form: reduced codes, not always shortlex."""
    return tuple(_kernels.letter_inv(c) for c in reversed(codes))


def parse_word(graph, text):
    """Parse whitespace-separated letters, e.g. ``"a b^-1 c^3"``."""
    ctx = context_for(graph)
    out = []
    for tok in text.split():
        name, caret, exp = tok.partition("^")
        if name not in ctx.index:
            raise GraphError("unknown generator %r" % (name,))
        try:
            k = int(exp) if caret else 1
        except ValueError:
            raise GraphError("bad exponent in token %r" % (tok,)) from None
        code = _kernels.letter(ctx.index[name], 1 if k > 0 else -1)
        out.extend([code] * abs(k))
    return out


def normal_form(graph, word):
    """Canonical element from a raw word.

    ``word`` may be a string (see parse_word), or an iterable of (generator,
    sign) pairs with sign +1/-1.
    """
    ctx = context_for(graph)
    if isinstance(word, str):
        codes = parse_word(graph, word)
    else:
        codes = [_letter(ctx, gen, sign) for gen, sign in word]
    return GroupElement(ctx, codes)


def _letter(ctx, v, sign):
    """The letter code of v^sign, for a generator v and a sign +1 or -1."""
    if v not in ctx.index:
        raise GraphError("unknown generator %r" % (v,))
    if sign not in (1, -1):
        raise GraphError("letter sign must be +1 or -1, got %r" % (sign,))
    return _kernels.letter(ctx.index[v], sign)


def identity(graph):
    return GroupElement(context_for(graph), (), _canonical=True)


def generator(graph, v, sign=1):
    """The generator v (sign +1) or its inverse (sign -1)."""
    ctx = context_for(graph)
    return GroupElement(ctx, (_letter(ctx, v, sign),), _canonical=True)


def multiply(x, y):
    return x * y


def invert(x):
    return x.inverse()


def in_special_subgroup(x, gens):
    """True iff x lies in the special subgroup generated by ``gens``.

    The support of a reduced RAAG word is an invariant of the element, so
    membership is a support check on the normal form.
    """
    return _in_mask(x.codes, x.ctx.gen_mask(gens))


def _in_mask(codes, mask):
    """Whether every letter of the codes is over a generator in the bitmask:
    for a normal form, membership in that special subgroup."""
    for c in codes:
        if not (mask >> _kernels.letter_gen(c)) & 1:
            return False
    return True


def subgroup_product_factors(x, gen_sets):
    """Factor x as a1 a2 ... ak with ai in the special subgroup <Ai>, or
    return None.

    Greedy and exact: a1 is the largest prefix of x in <A1>, the A1-letters
    that can move to the front.  One left-to-right scan finds them: it takes
    each A1-letter that no kept earlier letter blocks, and taken letters
    block nothing, since they have moved to the front.  The taken and kept
    letters together have the length of x, so the rest is reduced, and the
    front-movable letters of a reduced word do not depend on the order of
    its commuting letters: the next scan needs no normal form.  If x is in
    the product, so is every such quotient, and once no front-movable
    A1-letter remains the <A1> factor must be trivial.
    """
    ctx = x.ctx
    factors = _factors_by_masks(ctx, x.codes, [ctx.gen_mask(gens) for gens in gen_sets])
    if factors is None:
        return None
    return [GroupElement(ctx, f, _canonical=True) for f in factors]


def _factors_by_masks(ctx, codes, masks):
    """``subgroup_product_factors`` on normal-form codes, each generator set
    given as a bitmask over generator indices (``WordContext.star_masks``
    are the star subgroups).  Returns the factors as normal-form code
    tuples, or None."""
    if not codes:
        return [()] * len(masks)
    comm = ctx.comm_masks
    parts = []
    for mask in masks[:-1]:
        taken, kept = [], []
        blocked = 0
        for c in codes:
            g = _kernels.letter_gen(c)
            if (mask >> g) & 1 and not (blocked >> g) & 1:
                taken.append(c)
            else:
                kept.append(c)
                blocked |= ~comm[g] & ~(1 << g)
        parts.append(taken)
        codes = kept
    if not _in_mask(codes, masks[-1]):
        return None
    # reduced but not always shortlex: normalize each factor once
    return [ctx.nf(part) for part in parts + [codes]]


def in_subgroup_product(x, gen_sets):
    """True iff x is in the product <A1><A2>...<Ak> of special subgroups."""
    return subgroup_product_factors(x, gen_sets) is not None


# ---------------------------------------------------------------------------
# coset keys
# ---------------------------------------------------------------------------

# a cell's kind, indexed by the number of generators in its key
_KINDS = ("cone", "singular", "flat")

_ARITY_ERRORS = (
    "cone kind takes no generators",
    "singular kind takes exactly one generator",
    "flat kind takes exactly two generators",
)


class CosetKey(namedtuple("CosetKey", "gens rep")):
    """Canonical key of a coset rep<gens> for gens one of: nothing (cone
    vertex), a single generator (singular vertex), a sorted edge pair (flat
    vertex).  ``rep`` is the stripped representative.  Keys are plain
    (gens, rep) tuples: they equal and hash as such a tuple, and order by
    generators as tuples of names, then shortlex representative, with no
    rank of kinds (the cone key comes first, but flat <a,c> precedes
    singular <b>)."""

    __slots__ = ()

    @property
    def kind(self):
        return _KINDS[len(self.gens)]

    def __repr__(self):
        return "%s[%s]<%s>" % (self.kind, self.rep.word_str(), ",".join(self.gens))

    def label(self):
        return repr(self)


def coset_key(x, kind, gens=()):
    """Canonical key for the coset of x in the special subgroup named by
    ``kind``: "cone" (trivial), "singular" with one generator, or "flat" with
    an edge pair."""
    ctx = x.ctx
    if kind not in _KINDS:
        raise GraphError("unknown coset kind %r" % (kind,))
    gens = tuple(gens)
    if len(gens) != _KINDS.index(kind):
        raise GraphError(_ARITY_ERRORS[_KINDS.index(kind)])
    if kind == "flat":
        gens = tuple(sorted(gens))
        if not ctx.graph.has_edge(*gens):
            raise GraphError("{%s,%s} is not an edge of the defining graph" % gens)
    # gen_mask rejects an unknown singular generator
    rep = ctx.strip(x.codes, ctx.gen_mask(gens))
    return CosetKey(gens, GroupElement(ctx, rep, _canonical=True))


def singular_key(x, u):
    return coset_key(x, "singular", (u,))


def flat_key(x, u, w):
    return coset_key(x, "flat", (u, w))


# ---------------------------------------------------------------------------
# coset algebra: containment, stabilizers, connections between flats
# ---------------------------------------------------------------------------

def _check_key(kind, key):
    if not isinstance(key, CosetKey) or _KINDS[len(key.gens)] != kind:
        raise GraphError("expected a %s coset key" % kind)


def _singular_in_flat(s, f):
    """Coset containment g<u> <= h<x,y>, for checked keys."""
    if s.gens[0] not in f.gens:
        return False
    ctx = f.rep.ctx
    a, b = f.gens
    return _in_mask(ctx.quotient(f.rep.codes, s.rep.codes), 1 << ctx.index[a] | 1 << ctx.index[b])


def stabilizers_equal(s1, s2):
    """Whether two singular cosets have the same infinite-cyclic stabilizer:
    same generator u and representatives in the same coset of the centralizer
    of u, the star subgroup C(u) of u and its neighbours."""
    _check_key("singular", s1)
    _check_key("singular", s2)
    if s1.gens != s2.gens:
        return False
    ctx = s1.rep.ctx
    return _in_mask(ctx.quotient(s2.rep.codes, s1.rep.codes), ctx.star_masks[ctx.index[s1.gens[0]]])


def _connections(f1, f2, m, w=None):
    """The full-edge connections of coarse length m between two flats.

    Flats f1 and f2 are joined by a full-edge path of coarse length m iff
    some walk t_1 .. t_m in the defining graph (consecutive vertices
    adjacent, hence distinct), with t_1 a generator of f1 and t_m one of f2,
    has rep(f1)^-1 rep(f2) in the product C(t_1) C(t_2) ... C(t_m) of star
    subgroups.  This is exact and needs no ball.

    Yields each such walk as a tuple, with the factors a_1 .. a_m of
    ``subgroup_product_factors`` (a_j in C(t_j)) as normal-form code
    tuples, in sorted walk order: t_1 runs over f1.gens and each next vertex
    over the sorted neighbours.  ``w``, if given, is rep(f1)^-1 rep(f2).
    """
    ctx = f1.rep.ctx
    index = ctx.index
    a, b = f2.gens
    ends = 1 << index[a] | 1 << index[b]
    for t in f1.gens:
        for names, end, masks in ctx.walks(index[t], m):
            if not ends >> end & 1:
                continue
            if w is None:
                w = ctx.quotient(f1.rep.codes, f2.rep.codes)
            factors = _factors_by_masks(ctx, w, masks)
            if factors is not None:
                yield names, factors


# ---------------------------------------------------------------------------
# finite element sets
# ---------------------------------------------------------------------------

def cayley_ball(graph, radius):
    """All elements of word length <= radius, sorted by (length, codes)."""
    return syllable_ball(graph, radius, 1)


def syllable_ball(graph, depth, exp_cap):
    """Canonical forms reachable from the identity by at most ``depth`` right
    multiplications by generator powers u^k with 0 < |k| <= exp_cap, sorted
    by (length, codes).

    The elements are grown as a tree, with no normal-form search and no
    deduplication (see ``_syllable_tree``).  Why the tree holds each element
    exactly once:

    - A syllable of an element is a maximal power x^k of one generator in
      its reduced words.  By the normal-form theorem for graph products
      (Green, 1990; Hermiller-Meier, 1995) the syllables of an element are
      unique up to shuffling commuting syllables.  So its cost, the sum of
      ceil(|k| / exp_cap) over its syllables, is an invariant, and it is
      the least number of moves that reach the element: a move adds at
      most one syllable or changes one by at most exp_cap.
    - A syllable is right-movable if it can be shuffled to the end.  The
      right-movable syllables are over distinct, pairwise commuting
      generators, and deleting one leaves a reduced word whose other
      syllables are unchanged.  So the greatest right-movable syllable x^k
      is a canonical last step: the parent of g is g x^-k, of smaller cost.
    - Conversely h x^k has h as its parent iff x has no right-movable
      letter in h (else x^k would join that syllable) and x is greater
      than every right-movable generator of h that commutes with it (those
      stay right-movable in h x^k, and the others are blocked by x^k).
    - The right-movable letters of one generator x are contiguous in a
      shortlex normal form.  Every letter after the first of them commutes
      with x; if the letter y just after it were not an x-letter, then
      either y < x, and swapping the two gives a smaller word, or y > x,
      and moving the next right-movable x-letter left next to the first
      gives a smaller word.  The normal form of h x^k inserts x^k as one
      block before the leftmost letter greater than x in the tail of h
      that commutes with x (the insertion step of
      ``_kernels.normal_form_codes``, taken k times), and no right-movable
      block of h is split.
    """
    ctx = context_for(graph)
    return [GroupElement(ctx, node[0], _canonical=True) for node in _syllable_tree(ctx, depth, exp_cap)]


def _syllable_tree(ctx, depth, exp_cap):
    """The elements of ``syllable_ball`` as tree nodes (codes, mask, blocks,
    syllables, parent, cost), sorted by (length, codes).

    ``codes`` is the normal form, ``syllables`` the number of its syllables
    (its letter runs) and ``cost`` the number of moves that reach it;
    ``parent`` is the codes of its parent, None at the root.  ``mask`` has a
    bit per generator with right-movable letters, and ``blocks`` lists their
    positions as (generator, start, stop) slices of ``codes``, in increasing
    generator order.  A child h x^k of h carries down the blocks of h over
    generators that commute with x, shifted past the inserted x^k, and adds
    (x, p, p + |k|) last, since x is greater than every generator it
    carries.  Deleting that last block gives the parent back.
    """
    comm = ctx.comm_masks
    n = len(comm)
    most = depth * exp_cap
    # (|k|, cost of a syllable x^k), and the runs x^k, x^-k by |k|
    steps = [(k, (k + exp_cap - 1) // exp_cap) for k in range(1, most + 1)]
    runs = [([(2 * x + 1,) * k for k in range(most + 1)], [(2 * x + 2,) * k for k in range(most + 1)]) for x in range(n)]
    root = ((), 0, (), 0, None, 0)
    nodes = [root]
    frontier = [root]
    while frontier:
        children = []
        for codes, mask, blocks, nsyl, _, cost in frontier:
            room = (depth - cost) * exp_cap
            if room <= 0:
                continue
            L = len(codes)
            nsyl += 1
            for x in range(n):
                cx = comm[x]
                # x right-movable in h, or a commuting right-movable generator
                # above x: not a canonical last step
                if (mask & (cx | 1 << x)) >> x:
                    continue
                # insert before the leftmost greater letter of the tail of h
                # that commutes with x
                p = i = L
                while i:
                    i -= 1
                    g = (codes[i] - 1) >> 1
                    if not (cx >> g) & 1:
                        break
                    if g > x:
                        p = i
                head, rest = codes[:p], codes[p:]
                keep = mask & cx
                carried = [b for b in blocks if (keep >> b[0]) & 1] if keep else ()
                cmask = keep | 1 << x
                pos, neg = runs[x]
                for k, dc in steps[:room]:
                    if carried:
                        cblocks = tuple((y, s + k, e + k) if s >= p else (y, s, e) for y, s, e in carried)
                        cblocks += ((x, p, p + k),)
                    else:
                        cblocks = ((x, p, p + k),)
                    dc += cost
                    children.append((head + pos[k] + rest, cmask, cblocks, nsyl, codes, dc))
                    children.append((head + neg[k] + rest, cmask, cblocks, nsyl, codes, dc))
        nodes += children
        frontier = children
    by_length = {}
    for node in nodes:
        by_length.setdefault(len(node[0]), []).append(node)
    out = []
    for L in sorted(by_length):
        # the codes of distinct nodes differ
        level = by_length[L]
        level.sort(key=itemgetter(0))
        out += level
    return out
