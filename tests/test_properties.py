"""Property tests for the word algebra and graph invariants."""

import itertools

from hypothesis import given, settings, strategies as st

import raagqi.graphs as G
import raagqi.words as W

PENTAGON = G.pentagon()
LETTERS = [(g, s) for g in "abcde" for s in (1, -1)]

words = st.lists(st.sampled_from(LETTERS), max_size=10)


@given(words)
@settings(max_examples=150, deadline=None)
def test_normal_form_idempotent_and_short(raw):
    x = W.normal_form(PENTAGON, raw)
    assert len(x) <= len(raw)
    assert W.normal_form(PENTAGON, x.letters()) == x


@given(words, words)
@settings(max_examples=150, deadline=None)
def test_multiplication_respects_concatenation(r1, r2):
    lhs = W.normal_form(PENTAGON, r1) * W.normal_form(PENTAGON, r2)
    rhs = W.normal_form(PENTAGON, list(r1) + list(r2))
    assert lhs == rhs


@given(words)
@settings(max_examples=150, deadline=None)
def test_inverse_cancels(raw):
    x = W.normal_form(PENTAGON, raw)
    assert x * x.inverse() == W.identity(PENTAGON)
    assert x.inverse().inverse() == x


@given(words, st.integers(min_value=-12, max_value=12))
@settings(max_examples=100, deadline=None)
def test_power_is_repeated_product(raw, k):
    x = W.normal_form(PENTAGON, raw)
    step = x if k >= 0 else x.inverse()
    product = W.identity(PENTAGON)
    for _ in range(abs(k)):
        product = product * step
    assert x ** k == product


@given(words, st.sampled_from("abcde"), st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_singular_coset_key_invariant_under_right_multiplication(raw, u, k):
    x = W.normal_form(PENTAGON, raw)
    shifted = x * (W.generator(PENTAGON, u) ** k)
    assert W.singular_key(x, u) == W.singular_key(shifted, u)


@given(words, st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=100, deadline=None)
def test_flat_coset_key_invariant_under_edge_subgroup(raw, j, k):
    x = W.normal_form(PENTAGON, raw)
    shift = (W.generator(PENTAGON, "a") ** j) * (W.generator(PENTAGON, "b") ** k)
    assert W.flat_key(x, "a", "b") == W.flat_key(x * shift, "a", "b")


@given(st.sets(st.sampled_from("abcde"), min_size=1), st.sets(st.sampled_from("abcde"), min_size=1))
@settings(max_examples=80, deadline=None)
def test_orthogonal_complement_antitone(s1, s2):
    small, big = (s1, s1 | s2)
    assert G.orthogonal_complement(PENTAGON, big) <= G.orthogonal_complement(PENTAGON, small)


@given(words, st.sampled_from("abcde"))
@settings(max_examples=100, deadline=None)
def test_support_decides_special_membership(raw, u):
    x = W.normal_form(PENTAGON, raw)
    star = {u} | set(PENTAGON.neighbors(u))
    assert W.in_special_subgroup(x, star) == (x.support() <= star)


@st.composite
def small_graphs_with_relabelling(draw):
    """A graph on at most 7 vertices and a copy under random new names,
    listed in a random order."""
    n = draw(st.integers(0, 7))
    verts = ["v%d" % i for i in range(n)]
    pairs = list(itertools.combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = G.DefiningGraph(verts, [e for e, k in zip(pairs, keep) if k])
    names = draw(st.permutations(range(n)))
    rename = {v: "u%d" % x for v, x in zip(verts, names)}
    order = draw(st.permutations(verts))
    h = G.DefiningGraph([rename[v] for v in order], [(rename[a], rename[b]) for a, b in g.edges])
    return g, h


def brute_force_aut_order(g):
    edges = set(g.edges)
    count = 0
    for image in itertools.permutations(g.vertices):
        m = dict(zip(g.vertices, image))
        count += all(tuple(sorted((m[a], m[b]))) in edges for a, b in g.edges)
    return count


@given(small_graphs_with_relabelling())
@settings(max_examples=150, deadline=None)
def test_automorphism_order_is_brute_force_count_and_naming_free(pair):
    g, h = pair
    order = brute_force_aut_order(g)
    assert G.automorphism_group_order(g) == order
    assert G.automorphism_group_order(h) == order
    wit = G.isomorphism(g, h)
    assert wit is not None and G.is_isomorphism(g, h, wit)
    assert G.count_isomorphisms(g, h) == order
