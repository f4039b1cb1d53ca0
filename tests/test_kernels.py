from hypothesis import given, settings, strategies as st

import raagqi._kernels as K


def test_letter_codec():
    for gi in range(8):
        for s in (1, -1):
            c = K.letter(gi, s)
            assert K.letter_gen(c) == gi
            assert K.letter_sign(c) == s
            assert K.letter_gen(K.letter_inv(c)) == gi
            assert K.letter_sign(K.letter_inv(c)) == -s


# -- the cycle search against its unpruned form --------------------------------

def _cycle_lists_reference(adj, max_len, tight_only=False):
    """The cycle DFS before its distance and shortcut masks: every path from
    each start s through vertices above s, with the chord and 2-shortcut
    prunes of the tight search rescanning the path for each candidate."""
    out = []
    if max_len < 3:
        return out
    path = [0] * (max_len + 1)
    for s in range(len(adj)):
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
                if not tight_only or K.tight_check_ints(cyc, adj):
                    out.append(tuple(cyc))
            if depth + 1 >= max_len:
                continue
            nbrs = (av & ~visited) >> (s + 1) << (s + 1)
            inner = visited & ~(1 << v) & ~(1 << s)
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                w = low.bit_length() - 1
                if tight_only and depth >= 1:
                    aw = adj[w]
                    if aw & inner:
                        continue
                    if any(aw & adj[path[i]] for i in range(2, depth - 1)):
                        continue
                stack.append((w, depth + 1))
    return out


def assert_cycle_lists_match(adj, caps, modes=(False, True)):
    for cap in caps:
        for tight_only in modes:
            got = K.enumerate_cycle_lists(adj, cap, tight_only)
            assert got == _cycle_lists_reference(adj, cap, tight_only), (cap, tight_only)


@st.composite
def cycle_search_graphs(draw):
    # at most n + 8 edges keep the number of cycles below 2^9, while small
    # vertex counts still give near-complete graphs (triangles, 4-cycles)
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=n + 8, unique=True)) if pairs else []
    adj = [0] * n
    for i, j in chosen:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


@given(cycle_search_graphs())
@settings(max_examples=400, deadline=None)
def test_cycle_lists_match_unpruned_search(adj):
    # equal lists, order included, for every cap up to one past |V|
    assert_cycle_lists_match(adj, range(3, len(adj) + 2))


def test_cycle_lists_match_unpruned_search_on_named_graphs(tutte_coxeter, hoffman_singleton):
    from raagqi import graphs as G

    hs = list(hoffman_singleton.masks)
    assert_cycle_lists_match(hs, (4, 5))
    glue3 = list(G.glue_k_copies_along_star(G.dodecahedron(), "o0", 3).masks)
    assert_cycle_lists_match(glue3, (10,))
    assert_cycle_lists_match(glue3, (len(glue3),), modes=(True,))
    c70 = list(G.cycle_graph(70).masks)
    assert_cycle_lists_match(c70, (70,))
    tc = list(tutte_coxeter.masks)
    assert_cycle_lists_match(tc, (10,))
    assert_cycle_lists_match(tc, (len(tc),), modes=(True,))
