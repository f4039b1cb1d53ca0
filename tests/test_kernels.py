import numpy as np
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


def test_union_find_basic():
    root = K.union_find(6, [(0, 1), (1, 2), (4, 5)])
    assert root[0] == root[1] == root[2]
    assert root[4] == root[5]
    assert root[3] not in (root[0], root[4])


def _uf_core(parent, pairs):
    """Reference union-find: sequential unions by least root, then full
    path compression."""
    for k in range(pairs.shape[0]):
        a = pairs[k, 0]
        b = pairs[k, 1]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
    for i in range(parent.shape[0]):
        r = i
        while parent[r] != r:
            r = parent[r]
        while parent[i] != r:
            nxt = parent[i]
            parent[i] = r
            i = nxt
    return 0


@st.composite
def union_inputs(draw):
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    # self-pairs and repeated pairs
    pairs += [(p, p) for p in draw(st.lists(node, max_size=3))]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    return n, pairs


@given(union_inputs())
@settings(max_examples=300, deadline=None)
def test_union_find_matches_reference(inp):
    n, pairs = inp
    expect = np.arange(n, dtype=np.int64)
    _uf_core(expect, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
    got = K.union_find(n, pairs)
    assert got.dtype == np.int64
    assert got.tolist() == expect.tolist()
