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


def _generalized_petersen_2(n):
    # outer cycle u0..u(n-1), spokes ui-vi, inner vi-v(i+2); u at 0..n-1
    adj = [0] * (2 * n)
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    for a, b in edges + [(n + i, n + (i + 2) % n) for i in range(n)]:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _hamiltonian_cycle_with_chords(rng, n, chords):
    """A Hamiltonian n-cycle plus up to ``chords`` random chords, each
    joining vertices at distance >= 4, so the girth stays >= 5; the vertices
    are shuffled."""
    adj = [1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)]
    added = 0
    for _ in range(100 * chords):
        if added == chords:
            break
        a, b = rng.sample(range(n), 2)
        reach = 1 << a
        for _ in range(3):
            step = 0
            for v in range(n):
                if (reach >> v) & 1:
                    step |= adj[v]
            reach |= step
        if not (reach >> b) & 1:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            added += 1
    perm = rng.sample(range(n), n)
    out = [0] * n
    for v in range(n):
        for u in range(n):
            if (adj[v] >> u) & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def test_tight_cycle_lists_match_unpruned_search_on_deep_subtrees():
    # the prunes on the path's first two vertices cut whole subtrees here;
    # the lists must still equal the unpruned search's, order included
    import random

    from raagqi import graphs as G

    for n in range(5, 13):
        assert_cycle_lists_match(_generalized_petersen_2(n), (2 * n,), modes=(True,))
    for g in (G.dodecahedron(), G.dodecahedron_double()):
        adj = list(g.masks)
        assert_cycle_lists_match(adj, (len(adj),), modes=(True,))
    rng = random.Random(20)
    for n in range(16, 21):
        for chords in (4, 6, 8, 10):
            adj = _hamiltonian_cycle_with_chords(rng, n, chords)
            assert_cycle_lists_match(adj, (n,))


def test_tight_search_does_not_recheck_cycles(monkeypatch):
    def recheck(cyc, adj):
        raise AssertionError("per-cycle tightness check")

    expected = K.enumerate_cycle_lists(_generalized_petersen_2(8), 16, True)
    monkeypatch.setattr(K, "tight_check_ints", recheck)
    assert K.enumerate_cycle_lists(_generalized_petersen_2(8), 16, True) == expected
    assert len(expected) == len(set(expected)) > 0
