import itertools
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from weylseed.acceptance import CARTAN_POOL, random_reduced_word
from weylseed.cartan import (
    MAX_RANK,
    CartanMatrix,
    QuiverOrientation,
    ReducedWord,
    b_vector,
    dim_V,
    fundamental_weight,
    is_reduced,
    reflect_weight,
    simple_root,
    sym_form,
)
from weylseed.errors import ValidationError


def reflect_root(cartan: CartanMatrix, i: int, d: tuple[int, ...]) -> tuple[int, ...]:
    """Oracle: the simple reflection s_i(d) = d - <d, alpha_i^vee> alpha_i."""
    pairing = sum(dj * cartan.c(j + 1, i) for j, dj in enumerate(d))
    out = list(d)
    out[i - 1] -= pairing
    return tuple(out)


def euler_form(orientation: QuiverOrientation, d, e) -> int:
    """Oracle: <d,e> = sum d_i e_i - sum over arrows d_{s(a)} e_{t(a)}."""
    total = sum(x * y for x, y in zip(d, e))
    for s, t, m in orientation.arrows:
        total -= m * d[s - 1] * e[t - 1]
    return total


def test_reflect_root_simple(a2):
    assert reflect_root(a2, 1, (1, 0)) == (-1, 0)
    assert reflect_root(a2, 1, (0, 1)) == (1, 1)


def test_reflect_root_double_bond():
    c = CartanMatrix.from_edges(2, [(1, 2, 2)])
    assert reflect_root(c, 1, (0, 1)) == (2, 1)


@settings(max_examples=60)
@given(
    st.integers(1, 3),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
)
def test_reflect_root_involutive(i, d):
    c = CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)])
    assert reflect_root(c, i, reflect_root(c, i, d)) == d


def test_reflect_weight_fundamental(double_edge):
    w2 = fundamental_weight(3, 2)
    assert reflect_weight(double_edge, 1, w2) == w2
    # s_2(w_2) = w_2 - alpha_2; alpha_2 pairs to (-2, 2, -1) with the coroots
    moved = reflect_weight(double_edge, 2, w2)
    assert moved == (2, -1, 1)
    assert reflect_weight(double_edge, 2, moved) == w2


@settings(max_examples=60)
@given(
    st.integers(1, 3),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
)
def test_reflect_weight_involutive(i, lam):
    c = CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)])
    assert reflect_weight(c, i, reflect_weight(c, i, lam)) == lam


def test_is_reduced_basics(a2, a4):
    assert not is_reduced(a2, (1, 1))
    assert is_reduced(a4, (3, 4, 2, 1, 3, 4, 2, 1))


def test_is_reduced_matches_group_enumeration(a2):
    """Brute force over the 6-element dihedral group of rank-2 type A."""

    def perm_of(printed):
        # letters act as adjacent transpositions of (1,2,3)
        p = (1, 2, 3)
        for letter in reversed(printed):
            lst = list(p)
            lst[letter - 1], lst[letter] = lst[letter], lst[letter - 1]
            p = tuple(lst)
        return p

    shortest = {}
    for length in range(0, 4):
        for word in itertools.product((1, 2), repeat=length):
            p = perm_of(word)
            shortest.setdefault(p, length)
    for length in range(1, 4):
        for word in itertools.product((1, 2), repeat=length):
            expected = shortest[perm_of(word)] == length
            assert is_reduced(a2, word) == expected


def test_beta_sequence_star(star4):
    w = ReducedWord(star4, (3, 4, 2, 1, 4))
    assert set(w.betas) == {
        (0, 0, 0, 1),
        (1, 0, 0, 1),
        (0, 1, 0, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 2),
    }
    assert len(set(w.betas)) == 5


def test_beta_sequence_single_letter(a2):
    assert ReducedWord(a2, (2,)).betas == ((0, 1),)


def test_beta_sequence_wild(word_wild10):
    expected = [
        (1, 0, 0),
        (3, 1, 0),
        (8, 3, 0),
        (24, 8, 1),
        (40, 13, 2),
        (189, 63, 8),
        (527, 176, 22),
        (1392, 465, 58),
    ]
    assert list(word_wild10.betas[:8]) == expected


def test_betas_match_reflection_oracle(a4, star4, wild3):
    """beta(k) = s_{i_1}(...(s_{i_{k-1}}(alpha_{i_k}))), one reflection at a time."""
    rng = random.Random(13)
    for cartan in (a4, star4, wild3) * 5:
        printed = [rng.randint(1, cartan.n) for _ in range(rng.randint(0, 12))]
        positions = printed[::-1]
        expected = []
        for k, letter in enumerate(positions):
            d = simple_root(cartan.n, letter)
            for j in reversed(positions[:k]):
                d = reflect_root(cartan, j, d)
            expected.append(d)
        reduced = all(min(d) >= 0 for d in expected)
        assert is_reduced(cartan, printed) == reduced
        if reduced:
            assert list(ReducedWord(cartan, printed).betas) == expected
        else:
            with pytest.raises(ValidationError, match=r"word \[.*\] is not reduced"):
                ReducedWord(cartan, printed)
    for bad in ((1, 5), (0,)):
        with pytest.raises(ValidationError, match="out of range"):
            is_reduced(a4, bad)
        with pytest.raises(ValidationError, match="out of range"):
            ReducedWord(a4, bad)


def test_not_reduced_raises(a2):
    with pytest.raises(ValidationError, match=r"word \[1, 2, 1, 2\] is not reduced"):
        ReducedWord(a2, (1, 2, 1, 2))


def test_dim_v(triangle, word_a4_running):
    w = ReducedWord(triangle, (3, 2, 1, 3, 2, 1))
    assert dim_V(w, 5) == (4, 3, 2)
    assert dim_V(w, 1) == (1, 0, 0)
    # increments recover the root sequence
    prev = (0,) * 4
    for k in range(1, word_a4_running.r + 1):
        cur = dim_V(word_a4_running, k)
        km = word_a4_running.k_minus(k)
        base = dim_V(word_a4_running, km) if km else (0,) * 4
        assert tuple(c - b for c, b in zip(cur, base)) == word_a4_running.beta(k)


def _dim_v_by_reflections(word, k):
    """w_{i_k} - s_{i_1}...s_{i_k}(w_{i_k}), reflecting the weight written as
    w_{i_k} plus a root-lattice part and reading off that part."""
    cartan, j = word.cartan, word.letter(k)
    alpha = [0] * cartan.n
    for s in range(k, 0, -1):
        i = word.letter(s)
        pairing = (1 if i == j else 0) + sum(a * cartan.c(m + 1, i) for m, a in enumerate(alpha))
        alpha[i - 1] -= pairing
    return tuple(-a for a in alpha)


def test_dim_v_matches_reflection_oracle(a4, star4, wild3):
    from weylseed.acceptance import random_reduced_word

    rng = random.Random(11)
    for cartan in (a4, star4, wild3):
        for _ in range(8):
            word = random_reduced_word(rng, cartan, rng.randint(1, 9))
            for k in range(1, word.r + 1):
                assert dim_V(word, k) == _dim_v_by_reflections(word, k)


def test_b_vector_goldens(double_edge):
    w2 = ReducedWord(double_edge, (2, 1))
    assert b_vector(double_edge, w2.positions, fundamental_weight(3, 2)) == (2, 1)
    w7 = ReducedWord(double_edge, (3, 1, 2, 3, 1, 2, 1))
    assert b_vector(double_edge, w7.positions, fundamental_weight(3, 3)) == (4, 3, 2, 0, 1, 0, 1)
    w1 = ReducedWord(double_edge, (2,))
    assert b_vector(double_edge, w1.positions, fundamental_weight(3, 2)) == (1,)


def test_b_vector_prefix_sums(word_mut7):
    for k in range(1, word_mut7.r + 1):
        prefix = ReducedWord(word_mut7.cartan, word_mut7.printed[word_mut7.r - k:])
        lam = fundamental_weight(3, prefix.letter(k))
        b = b_vector(prefix.cartan, prefix.positions, lam)
        assert all(x >= 0 for x in b)
        assert sum(b) == sum(dim_V(word_mut7, k))


def test_b_vector_requires_dominant(a2):
    w = ReducedWord(a2, (1,))
    with pytest.raises(ValidationError, match=r"\(-1, 0\) is not dominant"):
        b_vector(a2, w.positions, (-1, 0))


def test_euler_and_sym_form(a2):
    q = QuiverOrientation.from_arrows(2, [(1, 2, 1)])
    assert euler_form(q, (1, 0), (1, 0)) == 1
    assert sym_form(a2, (1, 0), (1, 0)) == 2
    assert euler_form(q, (1, 0), (0, 1)) == -1
    assert euler_form(q, (0, 1), (1, 0)) == 0


@settings(max_examples=50)
@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
)
def test_sym_form_is_symmetrized_euler(d, e):
    q = QuiverOrientation.from_arrows(3, [(1, 2, 2), (3, 2, 1)])
    assert euler_form(q, d, e) + euler_form(q, e, d) == sym_form(q.cartan, d, e)


def test_real_roots_have_norm_two(word_wild10, word_a4_running):
    for w in (word_wild10, word_a4_running):
        for beta in w.betas:
            assert sym_form(w.cartan, beta, beta) == 2


def test_word_index_maps(word_gamma7):
    w = word_gamma7
    assert w.positions == (1, 2, 1, 3, 2, 1, 3)
    assert [w.k_plus(k) for k in range(1, 8)] == [3, 5, 6, 7, 8, 8, 8]
    assert [w.k_minus(k) for k in range(1, 8)] == [0, 0, 1, 0, 2, 3, 4]
    assert w.frozen_positions() == frozenset({5, 6, 7})
    for k in range(1, 8):
        if w.k_minus(k):
            assert w.k_plus(w.k_minus(k)) == k


def test_word_index_tables_against_scans(wild3):
    """k+, k-, place, links and firsts read tables built once per word;
    each is compared with a scan of the word's letters."""
    rng = random.Random(15)
    e8 = CartanMatrix.from_edges(
        8, [(5, 6, 1), (6, 8, 1), (7, 8, 1), (8, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)]
    )
    words = [ReducedWord(e8, tuple(range(8, 0, -1)) * 15)]
    words += [ReducedWord(wild3, (2, 3, 2, 1, 2, 1, 3, 1, 2, 1))]
    words += [
        random_reduced_word(rng, cartan, rng.randint(1, 9))
        for cartan in CARTAN_POOL
        for _ in range(4)
    ]
    for w in words:
        pos, r = w.positions, w.r
        for k in range(1, r + 1):
            up = [k] + [t for t in range(k + 1, r + 1) if pos[t - 1] == pos[k - 1]]
            down = [t for t in range(1, k) if pos[t - 1] == pos[k - 1]]
            assert w.k_plus(k) == (up[1] if len(up) > 1 else r + 1)
            assert w.k_minus(k) == (down[-1] if down else 0)
            assert w.place(k) == (tuple(down + up), len(down))
            assert w.firsts(k) == tuple(
                next((t for t in range(k, r + 1) if pos[t - 1] == j), r + 1)
                for j in range(w.cartan.n + 1)
            )
        for s in range(1, r + 1):
            sp = w.k_plus(s)
            links = []
            for t in range(1, sp):
                q = w.cartan.q(pos[s - 1], pos[t - 1])
                if t != s and q and w.k_plus(t) >= sp:
                    links.append((t, q, pos[t - 1]))
            assert w.links(s) == tuple(links)


def crossing_links(word: ReducedWord, s: int) -> tuple:
    """Oracle: the links of s found per call, one bisection per letter j
    joined to i_s for the last occurrence of j below s+."""
    sp = word.k_plus(s)
    links = []
    for j, q in word.cartan.adjacent(word.letter(s)):
        chain = word.chain(j)
        i = bisect_left(chain, sp)
        if i:
            links.append((chain[i - 1], q, j))
    return tuple(sorted(links))


def test_link_table_against_bisection_oracle():
    """The one-sweep link table gives, at every position, the links that
    per-call bisections find: on E8 ``(8..1)×15``, the three wild chain-pass
    words, affine D4 ``[5,1,2,3,4]×2`` and 40 random tame and wild words."""
    e8 = CartanMatrix.from_edges(
        8, [(5, 6, 1), (6, 8, 1), (7, 8, 1), (8, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)]
    )
    wild = CartanMatrix.from_edges(3, [(1, 2, 3), (1, 3, 2), (2, 3, 2)])
    affine_d4 = CartanMatrix.from_edges(5, [(1, 5, 1), (2, 5, 1), (3, 5, 1), (4, 5, 1)])
    words = [
        ReducedWord(e8, tuple(range(8, 0, -1)) * 15),
        ReducedWord(wild, (1, 2, 3, 1, 3, 1, 2, 3, 1, 3)),
        ReducedWord(wild, (2, 3, 1, 3, 2, 3, 2, 1, 3)),
        ReducedWord(wild, (3, 2, 3, 2, 1, 3, 2, 1, 3)),
        ReducedWord(affine_d4, (5, 1, 2, 3, 4) * 2),
    ]
    rng = random.Random(29)
    words += [
        random_reduced_word(rng, CARTAN_POOL[n % len(CARTAN_POOL)], rng.randint(1, 12))
        for n in range(40)
    ]
    assert sum(w.r for w in words) > 250
    for w in words:
        assert [w.links(s) for s in range(1, w.r + 1)] == [
            crossing_links(w, s) for s in range(1, w.r + 1)
        ]
    for s in (0, words[0].r + 1):
        with pytest.raises(ValidationError, match="out of range"):
            words[0].links(s)


def test_rank_limit():
    assert CartanMatrix.from_edges(MAX_RANK, []).n == MAX_RANK
    for rank in (MAX_RANK + 1, 10**9):
        with pytest.raises(ValidationError, match=f"rank {rank} exceeds the limit of {MAX_RANK}"):
            CartanMatrix.from_edges(rank, [])


def test_is_acyclic_matches_a_reachability_oracle():
    """Kahn's removal of in-degree-0 vertices agrees with the oracle that no
    vertex reaches itself, on random orientations of random simple graphs, and
    on a path of the largest rank with and without the arrow closing it."""
    rng = random.Random(41)
    answers = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        arrows = []
        for i, j in itertools.combinations(range(1, n + 1), 2):
            pick = rng.randint(0, 2)
            if pick:
                arrows.append([i, j] if pick == 1 else [j, i])
        reach = {v: {t for s, t in arrows if s == v} for v in range(1, n + 1)}
        for _ in range(n):
            reach = {v: out.union(*(reach[u] for u in out)) for v, out in reach.items()}
        expected = all(v not in out for v, out in reach.items())
        assert QuiverOrientation.from_arrows(n, arrows).is_acyclic() == expected, arrows
        answers.add(expected)
    assert answers == {True, False}
    path = [[i, i + 1] for i in range(1, MAX_RANK)]
    assert QuiverOrientation.from_arrows(MAX_RANK, path).is_acyclic()
    assert not QuiverOrientation.from_arrows(MAX_RANK, path + [[MAX_RANK, 1]]).is_acyclic()
