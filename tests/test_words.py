import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import raagqi._kernels as K
import raagqi.words as W
from raagqi.graphs import DefiningGraph, GraphError, pentagon as make_pentagon


# ---------------------------------------------------------------------------
# independent oracle: congruence closure over all words of bounded length.
# Letters are 0..2n-1 with letter = 2*gen + sign_bit; rewriting steps are
# swaps of adjacent commuting letters and cancellation of adjacent inverse
# pairs.  Union-find over base-(2n+1) integer codes.
# ---------------------------------------------------------------------------

class CongruenceOracle:
    def __init__(self, graph, max_len):
        order = tuple(sorted(graph.vertices))
        idx = {v: i for i, v in enumerate(order)}
        n = len(order)
        self.base = 2 * n + 1
        self.order = order
        self.max_len = max_len
        commute = [[False] * (2 * n) for _ in range(2 * n)]
        for a in range(2 * n):
            for b in range(2 * n):
                ga, gb = a // 2, b // 2
                if ga == gb or graph.has_edge(order[ga], order[gb]):
                    commute[a][b] = True
        size = self.base ** max_len
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        def encode(word):
            v = 0
            for c in reversed(word):
                v = v * self.base + (c + 1)
            return v

        self.encode = encode
        stack = [()]
        seen = 0
        words = [()]
        for L in range(1, max_len + 1):
            words = [w + (c,) for w in words for c in range(2 * n)] if L > 1 else [
                (c,) for c in range(2 * n)
            ]
            for w in words:
                e = encode(w)
                for i in range(L - 1):
                    a, b = w[i], w[i + 1]
                    if a // 2 == b // 2 and a != b:
                        union(e, encode(w[:i] + w[i + 2 :]))
                    if commute[a][b] and a != b:
                        union(e, encode(w[:i] + (b, a) + w[i + 2 :]))
        self.find = find

    def same(self, w1, w2):
        return self.find(self.encode(w1)) == self.find(self.encode(w2))


def all_words(n_letters, max_len):
    for L in range(max_len + 1):
        yield from itertools.product(range(n_letters), repeat=L)


def to_pairs(order, word):
    return [(order[c // 2], 1 if c % 2 == 0 else -1) for c in word]


@pytest.fixture(scope="module")
def oracle():
    return CongruenceOracle(make_pentagon(), 4)


def test_normal_form_matches_congruence_closure(pentagon, oracle):
    # every pair of words of length <= 4 over the pentagon group: equal
    # normal forms exactly when the rewriting system identifies them
    by_nf = {}
    by_root = {}
    for w in all_words(10, 4):
        nf = W.normal_form(pentagon, to_pairs(oracle.order, w)).codes
        root = oracle.find(oracle.encode(w))
        by_nf.setdefault(nf, set()).add(root)
        by_root.setdefault(root, set()).add(nf)
    assert all(len(roots) == 1 for roots in by_nf.values())
    assert all(len(nfs) == 1 for nfs in by_root.values())


def test_normal_form_is_geodesic(pentagon, oracle):
    # normal-form length is the minimum over the congruence class
    min_len = {}
    nf_len = {}
    for w in all_words(10, 4):
        root = oracle.find(oracle.encode(w))
        min_len[root] = min(min_len.get(root, 99), len(w))
        nf = W.normal_form(pentagon, to_pairs(oracle.order, w))
        nf_len[root] = len(nf)
    assert min_len == nf_len


def test_reduced_support_is_well_defined(pentagon, oracle):
    # any two minimum-length words of one element use the same letter multiset
    best = {}
    for w in all_words(10, 4):
        root = oracle.find(oracle.encode(w))
        cur = best.get(root)
        if cur is None or len(w) < cur[0]:
            best[root] = (len(w), {tuple(sorted(w))})
        elif len(w) == cur[0]:
            cur[1].add(tuple(sorted(w)))
    for _, (L, multisets) in best.items():
        assert len(multisets) == 1


def test_examples(pentagon):
    assert W.normal_form(pentagon, "a b a^-1").word_str() == "b"
    x = W.normal_form(pentagon, "a c")
    y = W.normal_form(pentagon, "c a")
    assert x != y
    assert W.normal_form(pentagon, "a b").word_str() == W.normal_form(pentagon, "b a").word_str()
    with pytest.raises(GraphError):
        W.normal_form(pentagon, "a q")


def test_idempotent_and_length_nonincreasing(pentagon):
    rng = random.Random(5)
    letters = [(g, s) for g in pentagon.vertices for s in (1, -1)]
    for _ in range(300):
        raw = [rng.choice(letters) for _ in range(rng.randint(0, 9))]
        x = W.normal_form(pentagon, raw)
        assert len(x) <= len(raw)
        again = W.normal_form(pentagon, x.letters())
        assert again == x


def test_multiply(pentagon):
    rng = random.Random(6)
    letters = [(g, s) for g in pentagon.vertices for s in (1, -1)]

    def rand():
        return W.normal_form(pentagon, [rng.choice(letters) for _ in range(rng.randint(0, 5))])

    e = W.identity(pentagon)
    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == e
        assert a * e == a and e * a == a
    a = W.generator(pentagon, "a")
    b = W.generator(pentagon, "b")
    c = W.generator(pentagon, "c")
    assert a * b == b * a
    assert a * c != c * a


def test_power_is_one_normalization(pentagon):
    # a^400 is one normalization of 400 letters, not 399 growing products
    a = W.generator(pentagon, "a")
    cache = W.context_for(pentagon)._nf_cache
    before = len(cache)
    x = a ** 400
    assert x.letters() == [("a", 1)] * 400
    assert len(cache) - before <= 20
    assert x * a ** -400 == W.identity(pentagon)


# ---------------------------------------------------------------------------
# long words: the insertion pass is about linear where the two-phase kernel
# was quadratic
# ---------------------------------------------------------------------------

def test_long_power_of_a_generator_is_its_own_normal_form(pentagon):
    assert W.normal_form(pentagon, "a^20000").letters() == [("a", 1)] * 20000


def test_long_power_equals_repeated_product(pentagon):
    x = W.normal_form(pentagon, "a b c")
    product = W.identity(pentagon)
    for _ in range(300):
        product = product * x
    assert x ** 300 == product
    assert len(product) == 900


def test_long_power_of_commuting_letters_sorts_them(pentagon):
    ab = W.normal_form(pentagon, "a b")
    assert (ab ** 500).letters() == [("a", 1)] * 500 + [("b", 1)] * 500


def test_long_nested_cancellation_is_the_identity(pentagon):
    # (a c)^600 (a c)^-600: a and c do not commute, so every cancellation
    # is nested inside the next
    word = " ".join(["a c"] * 600 + ["c^-1 a^-1"] * 600)
    assert len(W.parse_word(pentagon, word)) == 2400
    assert W.normal_form(pentagon, word).is_identity


def test_multiply_rejects_graph_mismatch(pentagon):
    other = make_pentagon()
    # same graph value yields the same cached context, so rebuild a distinct one
    from raagqi.graphs import DefiningGraph

    g2 = DefiningGraph(["a", "b"], [("a", "b")])
    with pytest.raises(GraphError):
        W.identity(pentagon) * W.identity(g2)


def test_in_special_subgroup(pentagon):
    e = W.identity(pentagon)
    assert W.in_special_subgroup(e, {"a"})
    x = W.normal_form(pentagon, "a b")
    assert W.in_special_subgroup(x, {"a", "b"})
    y = W.normal_form(pentagon, "c a c^-1")
    assert not W.in_special_subgroup(y, {"a"})


def test_coset_keys(pentagon):
    u3 = W.normal_form(pentagon, "a^3")
    assert W.singular_key(u3, "a").rep.is_identity
    ca = W.normal_form(pentagon, "c a")
    assert W.singular_key(ca, "a").rep.word_str() == "c"
    with pytest.raises(GraphError):
        W.flat_key(W.identity(pentagon), "a", "c")  # not an edge
    with pytest.raises(GraphError):
        W.coset_key(W.identity(pentagon), "nope")


def test_coset_key_equality_matches_membership(pentagon):
    ball = W.cayley_ball(pentagon, 2)
    kinds = [("singular", (u,)) for u in pentagon.sorted_vertices()] + [
        ("flat", e) for e in pentagon.edges
    ]
    for kind, gens in kinds:
        keys = {x: W.coset_key(x, kind, gens) for x in ball}
        for x in ball:
            for y in ball:
                member = W.in_special_subgroup(x.inverse() * y, set(gens))
                assert (keys[x] == keys[y]) == member


def test_subgroup_product_factors(pentagon):
    rng = random.Random(9)
    stars = {v: {v} | set(pentagon.neighbors(v)) for v in pentagon.vertices}

    def rand_in(gens, k):
        letters = [(g, s) for g in gens for s in (1, -1)]
        return W.normal_form(pentagon, [rng.choice(letters) for _ in range(k)])

    for _ in range(200):
        x, z = rng.sample(sorted(pentagon.vertices), 2)
        a = rand_in(stars[x], rng.randint(0, 3))
        b = rand_in(stars[z], rng.randint(0, 3))
        w = a * b
        fac = W.subgroup_product_factors(w, [stars[x], stars[z]])
        assert fac is not None
        assert fac[0] * fac[1] == w
        assert W.in_special_subgroup(fac[0], stars[x])
        assert W.in_special_subgroup(fac[1], stars[z])


def test_subgroup_product_membership_vs_bruteforce(pentagon):
    # w in <A><B> iff some alpha in <A> with |alpha| <= |w| has alpha^-1 w in <B>
    stars = {v: {v} | set(pentagon.neighbors(v)) for v in pentagon.vertices}
    A, B = stars["a"], stars["c"]
    sub_a = [x for x in W.cayley_ball(pentagon, 3) if W.in_special_subgroup(x, A)]
    for w in W.cayley_ball(pentagon, 3):
        brute = any(
            W.in_special_subgroup(alpha.inverse() * w, B) for alpha in sub_a if len(alpha) <= len(w)
        )
        assert W.in_subgroup_product(w, [A, B]) == brute


# ---------------------------------------------------------------------------
# the insertion pass against the two-phase kernel it replaced
# ---------------------------------------------------------------------------

def normal_form_reference(w, comm):
    """Shortlex normal form of the letter-code list ``w``, computed in place;
    returns ``w``."""
    # Phase 1: cancel x ... x^-1 pairs whenever everything between commutes
    # with x.  Same-generator letters always commute, so the scan only stops
    # at a genuinely blocking letter.
    changed = True
    while changed:
        changed = False
        n = len(w)
        for i in range(n):
            x = w[i]
            gx = (x - 1) >> 1
            cx = comm[gx]
            xinv = ((x - 1) ^ 1) + 1
            for j in range(i + 1, n):
                y = w[j]
                gy = (y - 1) >> 1
                if gx != gy and not (cx >> gy) & 1:
                    break
                if y == xinv:
                    del w[j]
                    del w[i]
                    changed = True
                    break
            if changed:
                break
    # Phase 2: greedy shortlex.  Repeatedly move the smallest front-movable
    # letter to the front.  Reducedness is preserved: commutation moves never
    # create a cancellable pair that phase 1 missed.
    n = len(w)
    for pos in range(n):
        best = pos
        x = w[pos]
        bg = (x - 1) >> 1
        blocked = ~comm[bg] & ~(1 << bg)
        for i in range(pos + 1, n):
            y = w[i]
            g = (y - 1) >> 1
            if not (blocked >> g) & 1 and y < x:
                best = i
                x = y
            blocked |= ~comm[g] & ~(1 << g)
        if best != pos:
            del w[best]
            w.insert(pos, x)
    return w


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_insertion_pass_matches_two_phase_kernel(seed):
    # graphs on 2..8 vertices with dense random edges, so that cliques
    # occur; words of up to 60 letters built from single letters, long
    # same-letter runs and nested w w^-1 blocks
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    density = rng.uniform(0.3, 0.9)
    comm = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                comm[i] |= 1 << j
                comm[j] |= 1 << i
    letters = range(1, 2 * n + 1)

    def nested(depth):
        outer = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
        inner = nested(depth - 1) if depth else []
        return outer + inner + [K.letter_inv(c) for c in reversed(outer)]

    for _ in range(20):
        size = rng.randint(0, 60)
        w = []
        while len(w) < size:
            kind = rng.random()
            if kind < 0.25:
                w += [rng.choice(letters)] * rng.randint(2, 12)
            elif kind < 0.5:
                w += nested(rng.randint(0, 3))
            else:
                w.append(rng.choice(letters))
        w = w[:60]
        assert K.normal_form_codes(list(w), comm) == normal_form_reference(list(w), comm)


# ---------------------------------------------------------------------------
# one-pass stripping and factoring against the renormalizing loops
# ---------------------------------------------------------------------------

def strip_reference(w, comm, strip_mask):
    """Delete one right-movable mask letter at a time and renormalize after
    each deletion, to a fixpoint."""
    K.normal_form_codes(w, comm)
    while True:
        n = len(w)
        for i in range(n - 1, -1, -1):
            g = (w[i] - 1) >> 1
            if (strip_mask >> g) & 1:
                cg = comm[g]
                for j in range(i + 1, n):
                    h = (w[j] - 1) >> 1
                    if g != h and not (cg >> h) & 1:
                        break
                else:
                    del w[i]
                    break
        else:
            return w
        K.normal_form_codes(w, comm)


def factors_reference(x, gen_sets):
    """Delete one front-movable letter of each factor at a time and
    renormalize after each deletion."""
    ctx = x.ctx
    codes = list(x.codes)
    factors = []
    for gens in gen_sets[:-1]:
        mask = ctx.gen_mask(gens)
        taken = []
        while True:
            removed = False
            blocked = 0
            for i, c in enumerate(codes):
                g = K.letter_gen(c)
                if not (blocked >> g) & 1 and (mask >> g) & 1:
                    taken.append(c)
                    del codes[i]
                    codes = list(ctx.nf(tuple(codes)))
                    removed = True
                    break
                blocked |= ~ctx.comm_masks[g] & ~(1 << g)
            if not removed:
                break
        factors.append(W.GroupElement(ctx, taken))
    last = ctx.gen_mask(gen_sets[-1])
    if not all((last >> K.letter_gen(c)) & 1 for c in codes):
        return None
    factors.append(W.GroupElement(ctx, tuple(codes), _canonical=True))
    return factors


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_one_pass_strip_and_factors_match_loops(seed):
    # graphs on 2..6 vertices with dense random edges, so triangles and
    # larger cliques occur; words of up to 14 letters, arbitrary masks
    rng = random.Random(seed)
    verts = ["v%d" % i for i in range(rng.randint(2, 6))]
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if rng.random() < 0.5]
    graph = DefiningGraph(verts, edges)
    ctx = W.context_for(graph)

    def word(gens, k):
        return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(k)]

    for _ in range(20):
        x = W.normal_form(graph, word(verts, rng.randint(0, 14)))
        mask = rng.randrange(1, 1 << len(verts))
        assert K.strip_coset_codes(list(x.codes), ctx.comm_masks, mask) == strip_reference(
            list(x.codes), ctx.comm_masks, mask
        )
        gen_sets = [rng.sample(verts, rng.randint(1, len(verts))) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # a member of the product, so that every factor is exercised
            x = W.normal_form(graph, [ltr for gens in gen_sets for ltr in word(gens, rng.randint(0, 5))])
        got = W.subgroup_product_factors(x, gen_sets)
        want = factors_reference(x, gen_sets)
        assert got == want
        if got is not None:
            assert all(f.codes == ctx.nf(f.codes) for f in got)


def test_word_parsing(pentagon):
    x = W.normal_form(pentagon, "a^2 b^-1")
    assert x.letters() == [("a", 1), ("a", 1), ("b", -1)]
    with pytest.raises(GraphError):
        W.parse_word(pentagon, "a^x")


@pytest.mark.parametrize("text", ["a^", "b a^", "a^ b"])
def test_word_parsing_rejects_an_empty_exponent(pentagon, text):
    # a caret promises an exponent; "a^" is not read as "a"
    with pytest.raises(GraphError, match="bad exponent"):
        W.parse_word(pentagon, text)


# ---------------------------------------------------------------------------
# the syllable tree against the breadth-first search it replaced
# ---------------------------------------------------------------------------

def syllable_ball_reference(graph, depth, exp_cap):
    """Canonical forms reachable from the identity by at most ``depth`` right
    multiplications by generator powers u^k with 0 < |k| <= exp_cap."""
    ctx = W.context_for(graph)
    moves = []
    for i in range(len(ctx.generators)):
        for k in range(1, exp_cap + 1):
            moves.append((K.letter(i, 1),) * k)
            moves.append((K.letter(i, -1),) * k)
    seen = {()}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for codes in frontier:
            for m in moves:
                w = ctx.nf(codes + m)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return [W.GroupElement(ctx, codes, _canonical=True) for codes in sorted(seen, key=lambda t: (len(t), t))]


def tail_scan(codes, star):
    """One right-to-left scan of a normal form: the positions of the
    right-movable letters of each generator, and the number of letter
    runs."""
    later = 0
    prev = -1
    count = 0
    tail = {}
    for i in range(len(codes) - 1, -1, -1):
        x = (codes[i] - 1) >> 1
        if x != prev:
            count += 1
            prev = x
        if not later & ~star[x]:
            tail.setdefault(x, []).append(i)
        later |= 1 << x
    return tail, count


@st.composite
def tree_graphs(draw):
    # graphs on 1..7 vertices: edgeless, complete (triangles, K4 and up)
    # or random
    n = draw(st.integers(1, 7))
    verts = ["v%d" % i for i in range(n)]
    pairs = list(itertools.combinations(verts, 2))
    kind = draw(st.sampled_from(["edgeless", "complete", "random"]))
    if kind == "edgeless":
        edges = []
    elif kind == "complete":
        edges = pairs
    else:
        edges = [e for e in pairs if draw(st.booleans())]
    return DefiningGraph(verts, edges)


@given(tree_graphs(), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_syllable_tree_matches_breadth_first_search(graph, depth, exp_cap):
    ref = syllable_ball_reference(graph, depth, exp_cap)
    assert W.syllable_ball(graph, depth, exp_cap) == ref
    assert W.cayley_ball(graph, depth) == syllable_ball_reference(graph, depth, 1)
    ctx = W.context_for(graph)
    nodes = W._syllable_tree(ctx, depth, exp_cap)
    assert [node[0] for node in nodes] == [g.codes for g in ref]
    cost_of = {node[0]: node[5] for node in nodes}
    for codes, mask, blocks, syllables, parent, cost in nodes:
        tail, runs = tail_scan(codes, ctx.star_masks)
        assert syllables == runs
        assert mask == sum(1 << x for x in tail)
        # one contiguous block per generator, in increasing generator order
        assert blocks == tuple((x, min(tail[x]), max(tail[x]) + 1) for x in sorted(tail))
        assert all(len(tail[x]) == stop - start for x, start, stop in blocks)
        if blocks:
            x, start, stop = blocks[-1]
            assert parent == codes[:start] + codes[stop:]
            assert cost == cost_of[parent] + (stop - start + exp_cap - 1) // exp_cap
        else:
            assert (codes, parent, cost) == ((), None, 0)


def test_syllable_tree_grows_without_normal_form_calls(monkeypatch, pentagon):
    def refuse(*args):
        raise AssertionError("the syllable tree called the normal form kernel")

    ref = [g.codes for g in syllable_ball_reference(pentagon, 3, 3)]
    monkeypatch.setattr(W.WordContext, "nf", refuse)
    monkeypatch.setattr(K, "normal_form_codes", refuse)
    assert [g.codes for g in W.syllable_ball(pentagon, 3, 3)] == ref


# ---------------------------------------------------------------------------
# context lifetime
# ---------------------------------------------------------------------------

def test_context_is_dropped_with_its_last_user():
    import gc

    from raagqi.flatspace import build_ball
    from raagqi.graphs import cycle_graph

    g = cycle_graph(7, prefix="life")
    ball = build_ball(g, 4)
    x = W.normal_form(g, "life0 life3^-2 life5")
    keys = [W.singular_key(x, "life3"), W.flat_key(x, "life0", "life1")]
    assert W._context_cache.get(g) is ball.ctx is x.ctx
    del ball, x, keys
    gc.collect()
    assert g not in W._context_cache


def test_equal_graphs_share_a_live_context():
    g1 = make_pentagon()
    x = W.normal_form(g1, "a c^-1")
    g2 = make_pentagon()
    assert g2 is not g1 and g2 == g1
    assert W.context_for(g2) is x.ctx
    y = W.generator(g2, "b")
    assert (x * y).word_str() == "a b c^-1"
    assert y * x * x.inverse() == y


def test_walk_table_keeps_short_walks_in_sorted_order(hoffman_singleton):
    # walks of every length from every start, in the sorted order of the
    # per-call enumeration; only lengths <= WALKS_KEPT stay in the table,
    # while a coarse-distance search asks for walks up to length 6
    import raagqi.coarse as CO

    g = hoffman_singleton
    ctx = W.context_for(g)
    for t in (0, 17, 49):
        walks = [(g.order[t],)]
        for m in range(1, 5):
            if m > 1:
                walks = [wk + (v,) for wk in walks for v in sorted(g.neighbors(wk[-1]))]
            got = ctx.walks(t, m)
            assert [names for names, _, _ in got] == walks
            assert all(end == g.index[names[-1]] for names, end, _ in got)
            assert all(masks == tuple(ctx.star_masks[g.index[v]] for v in names) for names, _, masks in got)
            assert (ctx.walks(t, m) is got) == (m <= W.WALKS_KEPT)
    e = W.identity(g)
    far = W.normal_form(g, "P0_0 Q1_1 P2_0 Q3_3 P4_0 Q0_0 P1_1")
    a, b = sorted(("P4_0", min(g.neighbors("P4_0"))))
    assert CO.coarse_distance(W.flat_key(e, "P0_0", "P0_1"), W.flat_key(far, a, b), 6).value == 6
    assert len(ctx.walks(0, 6)) == 7**5
    assert max(m for _, m in ctx._walks) == W.WALKS_KEPT == 3


def test_empty_words_factor_without_normal_form_calls(pentagon, monkeypatch):
    ctx = W.context_for(pentagon)

    def no_nf(codes):
        raise AssertionError("nf called on %r" % (codes,))

    monkeypatch.setattr(ctx, "nf", no_nf)
    assert W._factors_by_masks(ctx, (), [1, 2, 4]) == [(), (), ()]
    assert ctx.quotient((1, 3), (1, 3)) == ()
