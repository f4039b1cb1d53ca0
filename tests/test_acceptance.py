"""Acceptance suite: one test per criterion, each printing a pass line with
its measured runtime and asserting the stated bound.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

import pytest

import raagqi.cycles as C
import raagqi.diagrams as D
import raagqi.flatspace as FS
import raagqi.graphs as G
import raagqi.rigidity as R
import raagqi.words as W

from conftest import corpus


class Timer:
    def __init__(self, label, bound):
        self.label = label
        self.bound = bound

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print("[%s] %s in %.2fs (bound %ss)" % (self.label, status, dt, self.bound))
        if exc_type is None and self.bound is not None:
            assert dt < self.bound, "%s exceeded its %ss bound: %.2fs" % (self.label, self.bound, dt)


# ``pentagon`` is the session fixture of conftest, which the session balls
# ``pentagon_ball6`` and ``dd_ball6`` are built from
@pytest.fixture(scope="session")
def dd(dodeca_double):
    return dodeca_double


def test_criterion_01_atomicity_fixtures(pentagon, dd):
    with Timer("criterion 1: atomicity fixtures", 1.0):
        assert G.check_atomic(pentagon).is_atomic
        assert not G.check_atomic(G.double_along_closed_star(pentagon, "a")).is_atomic
        for k in (2, 3, 4):
            assert not G.check_atomic(G.glue_k_copies_along_star(pentagon, "a", k)).is_atomic
        for k in (2, 3):
            base = G.cycle_graph(6)
            assert not G.check_atomic(G.glue_k_copies_along_star(base, "v0", k)).is_atomic
        assert G.check_atomic(dd).is_atomic


def test_criterion_02_whitehead_fixtures(dd):
    C._tight_cycles.cache_clear()
    with Timer("criterion 2: Whitehead graphs on the doubled dodecahedron", 30.0):
        for v in dd.vertices:
            wh = C.whitehead_graph(dd, v)  # full tight-cycle enumeration
            link = sorted(dd.neighbors(v))
            assert list(wh.vertices) == link
            all_pairs = {(a, b) for a, b in itertools.combinations(link, 2)}
            if dd.degree(v) == 3:
                assert wh.edges == frozenset(all_pairs)
            else:
                assert dd.degree(v) == 4
                missing = all_pairs - set(wh.edges)
                assert len(missing) == 1
                a, b = missing.pop()
                assert {a.split("#")[-1], b.split("#")[-1]} == {"1", "2"}


def test_criterion_03_whitehead_lemma_suite():
    with Timer("criterion 3: Whitehead lemma on 200 random graphs", 120.0):
        graphs = corpus(200, seed=1234)
        violations = 0
        for g in graphs:
            rep = C.check_whitehead_lemma(g)
            if not rep["passed"]:
                violations += 1
        assert violations == 0


def test_criterion_04_coloring_lemma_suite(pentagon, dd):
    atomics = [pentagon, dd] + [g for g in corpus(60, seed=99) if G.check_atomic(g).is_atomic]
    rng = random.Random(4321)
    with Timer("criterion 4: coloring lemma on 500 sampled colorings", None):
        accepted = 0
        attempts = 0
        idx = 0
        while accepted < 500 and attempts < 20000:
            attempts += 1
            g = atomics[idx % len(atomics)]
            idx += 1
            base = rng.choice(["black", "white"])
            coloring = {e: base for e in g.edges}
            v = rng.choice(sorted(g.vertices))
            star = [tuple(sorted((v, u))) for u in g.neighbors(v)]
            for e in star:
                if rng.random() < 0.5:
                    coloring[e] = "gray"
            if rng.random() < 0.3:
                # adversarial: recolor random edges with the opposite color;
                # these candidates are usually rejected by hypothesis (2)
                other = "white" if base == "black" else "black"
                for e in rng.sample(g.edges, min(3, len(g.edges))):
                    if coloring[e] != "gray":
                        coloring[e] = rng.choice([base, other])
            rep = C.check_coloring_lemma(g, coloring)
            if rep["valid_hypotheses"]:
                accepted += 1
                assert rep["conclusion_holds"], (g, coloring)
        assert accepted >= 500


def _diagram_corpus(pentagon, dd, pent_ball, dd_ball):
    out = []
    out.append((pent_ball, D.lift_cycle(pentagon, C.enumerate_cycles(pentagon, 5)[0])))
    from test_diagrams import eight_cycle_fixtures

    for cyc in eight_cycle_fixtures(pent_ball, limit=20):
        out.append((pent_ball, cyc))
    for gamma in C.enumerate_cycles(dd, 9):
        out.append((dd_ball, D.lift_cycle(dd, gamma)))
    return out


def test_criterion_05_gauss_bonnet_shells(pentagon, dd, pentagon_ball6, dd_ball6):
    # the session balls equal FS.build_ball(pentagon, 6) and FS.build_ball(dd, 6):
    # balls are deterministic and equal graphs share one word context
    with Timer("criterion 5: shell inequality over the diagram corpus", None):
        cases = set()
        for ball, cyc in _diagram_corpus(pentagon, dd, pentagon_ball6, dd_ball6):
            d = D.build_diagram(cyc)
            rep = D.shell_report(d)
            assert rep.total_score >= 4
            assert rep.case in ("single_cell", "two_1shells", "one_1shell_two_2shells", "four_2shells")
            for r in rep.records:
                assert r.sides >= 4
            ones = sum(1 for r in rep.records if r.shell_class == "1-shell")
            twos = sum(1 for r in rep.records if r.shell_class == "2-shell")
            if ones == 2 and twos == 0 and len(rep.records) >= 2:
                # the remark: precisely two 1-shells and no 2-shells force a ladder
                assert rep.ladder
            if rep.case == "single_cell":
                assert rep.total_score == 4
            cases.add(rep.case)
        assert "single_cell" in cases and "two_1shells" in cases


def test_criterion_06_tight_iff_taut(pentagon, dd, pentagon_ball6, dd_ball6):
    with Timer("criterion 6: tight cycles match taut lifts up to length 9", 300.0):
        for g, ball in ((pentagon, pentagon_ball6), (dd, dd_ball6)):
            for gamma in C.enumerate_cycles(g, 9):
                lift = D.lift_cycle(g, gamma)
                tight = C.is_tight(g, gamma)
                taut = D.is_taut(lift)
                assert tight == taut, gamma
                if taut:
                    assert D.verify_taut_diagram_lemma(lift), gamma


BASE = 11


def _congruence_roots(max_len=6):
    """Union-find closure of swap/cancel rewriting over all pentagon words of
    length <= max_len, on base-11 integer codes (digits are letters + 1)."""
    g = G.pentagon()
    order = tuple(sorted(g.vertices))
    n = len(order)
    commute = [[False] * (2 * n) for _ in range(2 * n)]
    for a in range(2 * n):
        for b in range(2 * n):
            if a // 2 == b // 2 or g.has_edge(order[a // 2], order[b // 2]):
                commute[a][b] = True
    size = BASE ** max_len
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pow11 = [BASE ** i for i in range(max_len + 1)]
    words = [()]
    for L in range(1, max_len + 1):
        words = [w + (c,) for w in words for c in range(2 * n)]
        for w in words:
            code = 0
            for c in reversed(w):
                code = code * BASE + c + 1
            for i in range(L - 1):
                a, b = w[i], w[i + 1]
                if a == b:
                    continue
                target = None
                if a // 2 == b // 2:
                    # adjacent inverse pair: delete it
                    low = code % pow11[i]
                    target = low + (code // pow11[i + 2]) * pow11[i]
                elif commute[a][b]:
                    target = code + (b - a) * pow11[i] + (a - b) * pow11[i + 1]
                if target is not None:
                    ra, rb = find(code), find(target)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
    return order, find


def test_criterion_07_word_algebra_oracle(pentagon):
    with Timer("criterion 7: normal forms against the rewriting closure", None):
        order, find = _congruence_roots(6)
        ctx = W.context_for(pentagon)
        from raagqi._kernels import letter

        root_to_nf = {}
        nf_to_root = {}
        mismatches = 0
        min_len = {}
        words = [()]
        all_levels = [()]
        for L in range(1, 7):
            words = [w + (c,) for w in words for c in range(10)]
            all_levels.extend(words)
        for w in all_levels:
            code = 0
            for c in reversed(w):
                code = code * BASE + c + 1
            root = find(code)
            nf = ctx.nf(tuple(letter(c // 2, 1 if c % 2 == 0 else -1) for c in w))
            if root_to_nf.setdefault(root, nf) != nf:
                mismatches += 1
            if nf_to_root.setdefault(nf, root) != root:
                mismatches += 1
            prev = min_len.get(root)
            if prev is None or len(w) < prev:
                min_len[root] = len(w)
        assert mismatches == 0
        for root, nf in root_to_nf.items():
            assert len(nf) == min_len[root], "normal form is not geodesic"

    with Timer("criterion 7b: coset keys against the membership oracle", None):
        ball = W.cayley_ball(pentagon, 3)
        kinds = [("singular", (u,)) for u in pentagon.sorted_vertices()] + [
            ("flat", e) for e in pentagon.edges
        ]
        keys = {
            (kind, gens): {x: W.coset_key(x, kind, gens) for x in ball} for kind, gens in kinds
        }
        bad = 0
        for x in ball:
            xinv = x.inverse()
            for y in ball:
                prod = xinv * y
                support = prod.support()
                for kind, gens in kinds:
                    member = support <= set(gens)
                    if (keys[(kind, gens)][x] == keys[(kind, gens)][y]) != member:
                        bad += 1
        assert bad == 0


def test_criterion_08_flat_ball_structure(pentagon, dd):
    with Timer("criterion 8: radius-6 flat balls", 60.0):
        for g in (pentagon, dd):
            ball = FS.build_ball(g, 6)
            rep = FS.verify_ball_structure(ball)
            assert rep["passed"], rep


def test_criterion_09_rigidity_numbers(pentagon, dd):
    with Timer("criterion 9: rigidity classifications", None):
        relabeled = G.DefiningGraph(
            ["p1", "p2", "p3", "p4", "p5"],
            [("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p4", "p5"), ("p5", "p1")],
        )
        res = R.classify_qi(pentagon, relabeled)
        assert res.verdict == "quasi_isometric_with_isomorphism"
        assert G.is_isomorphism(pentagon, relabeled, res.witness)
        assert R.classify_qi(pentagon, dd).verdict == "not_quasi_isometric"
        doubled = G.double_along_closed_star(pentagon, "a")
        assert R.classify_qi(pentagon, doubled).verdict == "out_of_scope"
        assert R.out_group(pentagon).out_order == 320


def test_criterion_10_report_determinism(pentagon, dd):
    with Timer("criterion 10: byte-identical reports", None):
        for g in (pentagon, G.double_along_closed_star(pentagon, "a")):
            a = R.report_json(R.run_report(g, ball_radius=4))
            b = R.report_json(R.run_report(g, ball_radius=4))
            assert a == b
        a = R.report_json(R.run_report(dd, ball_radius=2, max_cycle_len=6, taut_cap=3))
        b = R.report_json(R.run_report(dd, ball_radius=2, max_cycle_len=6, taut_cap=3))
        assert a == b
