"""Hot inner loops: word rewriting and cycle search.

Words are lists of letter codes.  A letter is ``2*g + s + 1`` where ``g`` is
the generator index and ``s`` is 0 for the generator, 1 for its inverse.
Code order is exactly the shortlex letter order (a < a^-1 < b < b^-1 < ...).

Commutation and adjacency data are lists of int bitmasks: ``comm[g]`` has bit
``h`` set iff generators ``g`` and ``h`` are adjacent in the defining graph.
Two letters may swap iff their generators are equal or adjacent.  Masks are
Python ints, so there is no limit on the number of generators.

The normal form is one left-to-right pass that inserts or cancels each
letter locally (the step of Crisp-Godelle-Wiest's linear-time word problem),
so extending a normal form by one letter scans only the letters that commute
with it.  Coset stripping takes a normal form and does not renormalize.

The cycle search keeps one candidate mask per depth.  Its tight prunes are
complete, so it enters no subtree without a tight completion and never
rechecks a found cycle (the proof is in ``enumerate_cycle_lists``).

Each kernel has one plain-Python implementation and needs no third-party
package.
"""


def letter(gen_index, sign):
    """Letter code; sign is +1 or -1."""
    return 2 * gen_index + (0 if sign > 0 else 1) + 1


def letter_gen(code):
    return (code - 1) >> 1


def letter_sign(code):
    return -1 if (code - 1) & 1 else 1


def letter_inv(code):
    return ((code - 1) ^ 1) + 1


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def normal_form_codes(w, comm):
    """Shortlex normal form of the letter-code list ``w``, computed in place;
    returns ``w``.

    One left-to-right pass appends the letters of ``w`` to a normal form
    ``out``.  For each letter x it scans ``out`` backwards while the letters
    commute with x (the commuting tail): it stops at a letter equal to x,
    cancels the first x^-1 it finds, and otherwise inserts x before the
    leftmost tail letter greater than x, or at the end if there is none.

    Why ``out`` stays the shortlex normal form: the least order of a
    reduced word's letters is the greedy one, which takes at each step the
    least letter that no untaken letter blocks.  Let ``out`` be that order.

    - Neither x nor x^-1 in the tail: ``out`` x is reduced.  x becomes
      available just after the last letter that blocks it and blocks
      nothing, so the greedy order of ``out`` x is the old order with x
      taken at the first later step where it is smaller: before the
      leftmost greater tail letter.
    - x in the tail: left of it the tail has no letter greater than x (x
      would move before it, giving a smaller word) and no x^-1 (the pair
      would cancel), so stopping there finds the same leftmost greater
      letter; right of it there is no x^-1 either, so ``out`` x is reduced.
    - x^-1 in the tail: it is right-movable, so ``out`` x equals ``out``
      with that letter deleted, which is reduced, and deleting a letter
      that blocks nothing after it leaves the greedy order of the rest.
    """
    out = []
    for x in w:
        g = (x - 1) >> 1
        star = comm[g] | (1 << g)
        xinv = ((x - 1) ^ 1) + 1
        pos = i = len(out)
        while i:
            i -= 1
            y = out[i]
            if y == x or not (star >> ((y - 1) >> 1)) & 1:
                break
            if y == xinv:
                del out[i]
                pos = -1
                break
            if y > x:
                pos = i
        if pos >= 0:
            out.insert(pos, x)
    w[:] = out
    return w


def strip_coset_codes(w, comm, strip_mask):
    """Canonical coset representative of the normal form ``w`` (a list of
    letter codes, which it may change): ``w`` with its right-movable letters
    over ``strip_mask`` generators deleted.  ``w`` must already be a normal
    form; this is not checked.

    One right-to-left pass drops each mask letter that commutes with every
    kept later letter.  The dropped letters form the largest suffix of the
    word in <mask> (a right factor, so the word stays in its left coset), so
    the rest is reduced and none of its mask letters can move to its right
    end.  Deleting such a suffix from the shortlex-least order of a word's
    letters leaves the shortlex-least order of the rest, so there is no
    renormalize loop.
    """
    blocked = 0
    for i in range(len(w) - 1, -1, -1):
        g = (w[i] - 1) >> 1
        if (strip_mask >> g) & 1 and not (blocked >> g) & 1:
            del w[i]
        else:
            blocked |= ~comm[g] & ~(1 << g)
    return w


# ---------------------------------------------------------------------------
# embedded / tight cycle search
# ---------------------------------------------------------------------------

def tight_check_ints(cyc, adj):
    """Exact tightness test for one cycle of vertex indices: no chord
    (1-shortcut) and no common neighbor of two vertices at cycle distance
    > 2 (2-shortcut)."""
    L = len(cyc)
    for i in range(L):
        ai = adj[cyc[i]]
        for j in range(i + 1, L):
            d = j - i
            if L - d < d:
                d = L - d
            if d > 1 and (ai >> cyc[j]) & 1:
                return False
            if d > 2 and ai & adj[cyc[j]]:
                return False
    return True


def _neighbours_of(mask, adj):
    """The OR of ``adj[v]`` over the vertices v in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= adj[low.bit_length() - 1]
    return out


def enumerate_cycle_lists(adj, max_len, tight_only=False):
    """Embedded cycles (vertex-index tuples in canonical position: start =
    least vertex, second < last) of length <= max_len; only tight ones when
    ``tight_only`` is set.

    A depth-first search from each start s through the vertices above s:
    ``cand[j]`` holds the untried successors of ``path[j]``, taken highest
    bit first, and a cycle is emitted when its last vertex is taken.  Every
    prune kills only subtrees with no completion, so the output is that of
    the unpruned search (a stack pushing successors lowest first), in order.

    - Distance: a vertex at path index j must lie within max_len - j steps
      of s in the subgraph on s and the vertices above it; ``near[k]``
      holds the vertices above s within k such steps, by BFS frontiers.
    - Tight search, w taken at index j >= 2 after p0 = s, ..., p(j-1), and
      ``two[v]`` the vertices sharing a neighbour with v.  ``ban`` drops w
      adjacent to one of p1..p(j-2) (a chord), sharing a neighbour with one
      of p2..p(j-3) (a 2-shortcut), or (j >= 4) sharing a neighbour with p1
      but not adjacent to s (p1 and w must close to cycle distance <= 2, so
      w would have to end the cycle).  A w adjacent to s ends a cycle and
      is not extended (s, w is a chord of any longer one); a w in ``two[s]``
      with j >= 3 is extended only into N(s), as the cycle must close
      within two steps.  Why every emitted cycle is tight: cycle distance
      is at most path distance, so a chord pair (i, j), i < j, has
      i <= j - 2 and a 2-shortcut pair i <= j - 3; the bans cover i >= 1
      and i >= 2, the rules for p1 and s cover i = 1 and i = 0.
    """
    out = []
    n = len(adj)
    # an embedded cycle has at most one vertex per graph vertex
    max_len = min(max_len, n)
    if max_len < 3:
        return out
    path, cand, ban = [0] * max_len, [0] * max_len, [0] * max_len
    two = [_neighbours_of(a, adj) for a in adj] if tight_only else None
    for s in range(n):
        above = -1 << (s + 1)
        near = [0] * max_len
        reach = frontier = 1 << s
        for k in range(1, max_len):
            frontier = _neighbours_of(frontier, adj) & above & ~reach
            if not frontier:
                near[k:] = [reach & above] * (max_len - k)
                break
            reach |= frontier
            near[k] = reach & above
        # near[k] holds only vertices above s, so every cycle is found from
        # its least vertex
        if not near[max_len - 1]:
            continue
        ns = adj[s]
        path[0] = s
        cand[0] = ns & near[max_len - 1]
        visited = 1 << s
        j = 0
        while j >= 0:
            c = cand[j]
            if not c:
                visited ^= 1 << path[j]
                j -= 1
                continue
            w = c.bit_length() - 1
            cand[j] = c ^ (1 << w)
            k = j + 1
            path[k] = w
            if k >= 2 and (ns >> w) & 1:
                if path[1] < w:
                    out.append(tuple(path[: k + 1]))
                if tight_only:
                    continue
            # near[0] is empty, so nothing extends a path of max_len vertices
            nbrs = adj[w] & near[max_len - k - 1] & ~visited
            if tight_only and k >= 2 and nbrs:
                b = ban[j] | adj[path[j]]
                b |= two[path[k - 2]] if k >= 4 else two[path[1]] & ~ns if k == 3 else 0
                ban[k] = b
                nbrs &= ~b
                if k >= 3 and (two[s] >> w) & 1:
                    nbrs &= ns
            if nbrs:
                visited |= 1 << w
                cand[k] = nbrs
                j = k
    return out
