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


def enumerate_cycle_lists(adj, max_len, tight_only=False):
    """Embedded cycles (vertex-index tuples in canonical position: start =
    least vertex, second < last) of length <= max_len; only tight ones when
    ``tight_only`` is set.

    Every prune below is sound (it kills only subtrees with no completion),
    so the cycles come out in plain depth-first order; the final per-cycle
    tightness check is exact.

    - Distance: a cycle from s returns to s through vertices above s, so a
      vertex at path index d + 1 must lie within max_len - d - 1 steps of s
      in the subgraph on s and the vertices above it.  ``near[k]`` holds the
      vertices above s within k such steps, by BFS frontiers from s.
    - Tight search: an edge from the new vertex back into the path interior
      is a chord of every completion; a common neighbour with path[i],
      2 <= i <= d - 2, is a 2-shortcut of every completion.  ``far[d]``
      carries the OR of those neighbour masks down the path.
    """
    out = []
    # an embedded cycle has at most one vertex per graph vertex
    max_len = min(max_len, len(adj))
    if max_len < 3:
        return out
    path = [0] * (max_len + 1)
    far = [0] * (max_len + 1)
    for s in range(len(adj)):
        above = -1 << (s + 1)
        near = [0] * max_len
        reach = frontier = 1 << s
        for k in range(1, max_len):
            new = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new |= adj[low.bit_length() - 1]
            frontier = new & above & ~reach
            if not frontier:
                near[k:] = [reach & above] * (max_len - k)
                break
            reach |= frontier
            near[k] = reach & above
        if not near[max_len - 1]:
            continue
        # a stack entry (v, depth) enters v; (v, -1) leaves it once the
        # subtree below v is done
        stack = [(s, 0)]
        visited = 0
        while stack:
            v, depth = stack.pop()
            if depth == -1:
                visited &= ~(1 << v)
                continue
            path[depth] = v
            visited |= 1 << v
            stack.append((v, -1))
            av = adj[v]
            if depth >= 2 and (av >> s) & 1 and path[1] < v:
                cyc = path[: depth + 1]
                if not tight_only or tight_check_ints(cyc, adj):
                    out.append(tuple(cyc))
            if depth + 1 >= max_len:
                continue
            # near[k] holds only vertices above s, so every cycle is found
            # from its least vertex
            nbrs = av & near[max_len - depth - 1] & ~visited
            if tight_only and depth >= 1:
                inner = visited & ~(1 << v) & ~(1 << s)
                far[depth] = far[depth - 1] | adj[path[depth - 2]] if depth >= 4 else 0
                shortcut = far[depth]
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    w = low.bit_length() - 1
                    aw = adj[w]
                    if not (aw & inner or aw & shortcut):
                        stack.append((w, depth + 1))
            else:
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    stack.append((low.bit_length() - 1, depth + 1))
    return out
