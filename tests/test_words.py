import importlib
import json
import math
import pathlib
import random
import re
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from weylseed import cli, words
from weylseed.acceptance import CARTAN_POOL, random_reduced_word
from weylseed.cartan import CartanMatrix, ReducedWord, b_vector, fundamental_weight
from weylseed.cli import main
from weylseed.errors import NonIntegralCoefficientError, TermLimitError, ValidationError
from weylseed.laurent import LaurentPoly, VarTable
from weylseed.quiver import Seed
from weylseed.words import (
    WordSum,
    _decompositions,
    g_V,
    phi_eval,
    rho_f,
    shuffle,
    splits_into_runs,
    to_word,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def ws(*pairs):
    """A WordSum from (letter tuple, coefficient) pairs."""
    return WordSum({to_word(w): c for w, c in pairs})


def letters_of(w: str) -> tuple[int, ...]:
    """Oracle: the letter tuple of a package word."""
    return tuple(map(ord, w))


def as_tuples(u: WordSum) -> WordSum:
    """The same sum keyed by letter tuples, the form the oracles use."""
    return WordSum({letters_of(w): c for w, c in u.terms.items()})


def as_words(u: WordSum) -> WordSum:
    """The inverse of ``as_tuples``."""
    return WordSum({to_word(w): c for w, c in u.terms.items()})


def combination(*pairs):
    """Oracle: the sum of c * u over pairs (c, u) of an integer and a WordSum."""
    out = {}
    for c, u in pairs:
        for w, x in u.terms.items():
            out[w] = out.get(w, 0) + c * x
    return WordSum(out)


def wordsum_json(u: WordSum) -> dict:
    """Oracle: the JSON document that ``WordSum.json_text`` writes, for a sum
    keyed by letter tuples."""
    ordered = sorted(u.terms.items(), key=lambda t: (len(t[0]), t[0]))
    return {"terms": [{"word": list(w), "coef": str(c)} for w, c in ordered]}


def wordsum_from_json(text: str) -> WordSum:
    """The inverse of the text that ``WordSum.json_text`` writes in pieces."""
    doc = json.loads(text)
    return WordSum({to_word(t["word"]): int(t["coef"]) for t in doc["terms"]})


def rho_e(i: int, u: WordSum) -> WordSum:
    """Oracle: the raising operator rho(e_i) strips a trailing letter i."""
    out: dict[str, int] = {}
    for w, c in u.terms.items():
        if w and ord(w[-1]) == i:
            out[w[:-1]] = out.get(w[:-1], 0) + c
    return WordSum(out)


def euler_of_reachable(expr: LaurentPoly, word: ReducedWord, pattern) -> LaurentPoly:
    """Oracle: evaluate a cluster expression in the initial variables y_k on the
    product ``pattern`` by substituting phi_eval(g_V(word, k)) for each y_k it
    uses.  The coefficients are the Euler characteristics of the reachable
    module."""
    used = {expr.vars.names[i] for exp in expr.terms for i, e in enumerate(exp) if e}
    return expr.substitute(
        {y: phi_eval(g_V(word, int(y[1:]), pattern), pattern) for y in used}
    )


def letter_content(letters, n: int) -> tuple[int, ...]:
    """Oracle: how often each letter 1..n occurs in a sequence of letters."""
    out = [0] * n
    for letter in letters:
        out[letter - 1] += 1
    return tuple(out)


def refined_word(word, k: int, b) -> tuple[int, ...]:
    """Oracle: the word (i_k^{b_k}, ..., i_1^{b_1}) read left to right."""
    out: list[int] = []
    for j in range(k, 0, -1):
        out.extend([word.letter(j)] * b[j - 1])
    return tuple(out)


def test_shuffle_unit_and_basics():
    u = ws(((1, 2), 3))
    assert shuffle(WordSum.unit(), u) == u
    assert shuffle(ws(((1,), 1)), ws(((2,), 1))) == ws(((1, 2), 1), ((2, 1), 1))
    assert shuffle(ws(((1,), 1)), ws(((1,), 1))) == ws(((1, 1), 2))


word_sums = st.dictionaries(
    st.lists(st.integers(1, 2), max_size=2).map(to_word),
    st.integers(-5, 5),
    max_size=3,
).map(WordSum)


@settings(max_examples=50, deadline=None)
@given(word_sums, word_sums, word_sums)
def test_shuffle_ring_axioms(a, b, c):
    assert shuffle(a, b) == shuffle(b, a)
    assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))
    assert shuffle(a, combination((1, b), (1, c))) == combination(
        (1, shuffle(a, b)), (1, shuffle(a, c))
    )


def test_rho_examples(double_edge):
    lam = fundamental_weight(3, 2)
    assert rho_f(double_edge, lam, 2, WordSum.unit(), 1) == ws(((2,), 1))
    assert rho_f(double_edge, lam, 1, ws(((2,), 1)), 1) == ws(((2, 1), 2))
    assert rho_f(double_edge, lam, 1, ws(((2, 1), 2)), 1) == ws(((2, 1, 1), 4))


def single_lowering(cartan, lam, i, u):
    """Oracle: f_i inserting one letter i at every position, weighted by the
    coroot pairing of lam minus the roots of the prefix before it.  Words are
    letter tuples here and in every lowering oracle below."""
    out = {}
    for w, c in u.terms.items():
        weight = lam[i - 1]
        for l in range(len(w) + 1):
            if l:
                weight -= cartan.c(i, w[l - 1])
            key = w[:l] + (i,) + w[l:]
            out[key] = out.get(key, 0) + c * weight
    return WordSum(out)


def iterated_divided_power(cartan, lam, i, u, p, pattern=None):
    """Oracle: p single insertions, each followed by the pattern pruning,
    then one exact division by p!."""
    for _ in range(p):
        u = single_lowering(cartan, lam, i, u)
        if pattern is not None:
            u = WordSum({w: c for w, c in u.terms.items() if has_decomposition(w, pattern)})
    fact = math.factorial(p)
    assert all(c % fact == 0 for c in u.terms.values())
    return WordSum({w: c // fact for w, c in u.terms.items()})


def test_divided_power_by_hand(double_edge):
    """lam = (3, 0, 0): f_1^(2) of the empty word is h(h - 1) = 6 times (1, 1),
    and f_1^(1) of (1,) puts weights 3 and 3 - 2 on the two gaps."""
    lam = (3, 0, 0)
    assert rho_f(double_edge, lam, 1, WordSum.unit(), 2) == ws(((1, 1), 6))
    assert rho_f(double_edge, lam, 1, ws(((1,), 1)), 1) == ws(((1, 1), 4))
    assert rho_f(double_edge, lam, 1, WordSum.unit(), 0) == WordSum.unit()
    with pytest.raises(ValidationError, match="negative divided power"):
        rho_f(double_edge, lam, 1, WordSum.unit(), -1)


@pytest.mark.parametrize("cartan", CARTAN_POOL, ids=lambda c: f"rank{c.n}")
@pytest.mark.parametrize("seed", range(3))
def test_divided_power_matches_iterated_oracle(cartan, seed):
    """rho_f(..., p) equals p single insertions divided by p!, for weights that
    are not dominant (zero and negative gap factors), with and without a
    pattern.  The input words are rearrangements of one content of up to 6
    letters, about half of them i: carried gap factors cross several rounds,
    and a word is reached from several last positions, also out of order."""
    rng = random.Random(seed)
    letters = range(1, cartan.n + 1)
    for _ in range(6):
        lam = tuple(rng.randint(-3, 3) for _ in letters)
        i = rng.choice(letters)
        content = [rng.choice((i, rng.choice(letters))) for _ in range(rng.randint(0, 6))]
        u = WordSum(
            {
                tuple(rng.sample(content, len(content))): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 4))
            }
        )
        pattern = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
        for p in range(7):
            for pat in (None, pattern):
                word_pat = None if pat is None else to_word(pat)
                assert as_tuples(rho_f(cartan, lam, i, as_words(u), p, word_pat)) == (
                    iterated_divided_power(cartan, lam, i, u, p, pat)
                )


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("lam", [(3, 0, 0), (2, 1, 0), (-1, 0, 2)])
def test_divided_power_word_reached_again_from_the_left(double_edge, lam, p):
    """Lowering (1, 2) + (2, 1) by letter 1 reaches (1, 2, 1) first from
    (1, 2) with its last 1 at position 2, then from (2, 1) at position 0: the
    second, smaller position must move the word's first gap and factor."""
    u = ws(((1, 2), 1), ((2, 1), 1))
    assert list(u.terms) == [to_word((1, 2)), to_word((2, 1))]
    for pattern in (None, (1, 2, 1), (2, 1)):
        word_pat = None if pattern is None else to_word(pattern)
        assert as_tuples(rho_f(double_edge, lam, 1, u, p, word_pat)) == (
            iterated_divided_power(double_edge, lam, 1, as_tuples(u), p, pattern)
        )


@pytest.mark.parametrize("lam", [(3, 0, 0), (1, 2, 0), (-2, 1, 1)])
def test_divided_power_walk_starting_at_the_word_end(double_edge, lam):
    """Round 1 of lowering (2,) by letter 1 puts a 1 after the 2, so round 2
    walks (2, 1) from its first gap 2, the word's end: that gap alone is
    filled, and no letter is read past it."""
    u = ws(((2,), 1), ((3, 2), -2))
    for p in (1, 2, 3):
        assert as_tuples(rho_f(double_edge, lam, 1, u, p)) == (
            iterated_divided_power(double_edge, lam, 1, as_tuples(u), p)
        )


@pytest.mark.parametrize("lam", [(9, 0, 0), (5, -1, 2)])
def test_divided_power_word_reached_from_three_last_positions(double_edge, lam):
    """Lowering (1, 1) by letter 1 reaches (1, 1, 1) from the three gaps of
    round 1, so round 2 walks a state with three last positions; lowering
    (1, 2, 1) reaches (1, 1, 2, 1) and (1, 2, 1, 1) from two each.  At
    p = 4 the pointer crosses every pair."""
    u = ws(((1, 1), 1), ((1, 2, 1), 3))
    assert as_tuples(rho_f(double_edge, lam, 1, u, 4)) == (
        iterated_divided_power(double_edge, lam, 1, as_tuples(u), 4)
    )


def test_g_v_lowers_once_per_nonzero_power(monkeypatch, word_gamma7):
    """Each nonzero entry of the socle multiplicities is one rho_f call."""
    calls = []

    def counting_rho_f(cartan, lam, i, u, p, pattern=None):
        calls.append(p)
        return rho_f(cartan, lam, i, u, p, pattern)

    monkeypatch.setattr(words, "rho_f", counting_rho_f)
    for k in [1, 2, 3, 4, 5, 7]:  # k = 6 has 392,206 words; see the content test
        calls.clear()
        g_V(word_gamma7, k)
        prefix = ReducedWord(word_gamma7.cartan, word_gamma7.printed[word_gamma7.r - k:])
        b = b_vector(prefix.cartan, prefix.positions, fundamental_weight(3, prefix.letter(k)))
        assert calls == [x for x in reversed(b) if x]


def test_rho_e_strips_trailing_letter(double_edge):
    u = ws(((2, 1), 3), ((1, 2), 5))
    assert rho_e(1, u) == ws(((2,), 3))


def test_rho_commutator_weight(double_edge):
    """[rho(e_i), rho(f_i)] acts on a homogeneous word by its coroot pairing."""
    lam = fundamental_weight(3, 2)
    for word in [(2,), (2, 1), (2, 1, 1)]:
        u = ws((word, 1))
        i = 1
        ef = rho_e(i, rho_f(double_edge, lam, i, u, 1))
        fe = rho_f(double_edge, lam, i, rho_e(i, u), 1)
        content = letter_content(word, 3)
        pairing = lam[i - 1] - sum(
            double_edge.c(i, j + 1) * content[j] for j in range(3)
        )
        assert combination((1, ef), (-1, fe)) == ws((word, pairing))


def test_g_v_builds_no_word(monkeypatch, word_gamma7):
    """g_V reads the first k letters of the word it is given; it builds and
    validates no prefix word."""
    inits = []
    init = ReducedWord.__init__

    def counting_init(self, *args):
        inits.append(args)
        init(self, *args)

    monkeypatch.setattr(ReducedWord, "__init__", counting_init)
    for k in (1, 2, 3, 4, 7):
        g_V(word_gamma7, k)
    assert inits == []


def test_g_v_equals_g_v_of_the_prefix_word():
    """g_V(word, k) is the last generating function of the length-k prefix
    (i_k, ..., i_1), built here as a word of its own."""
    rng = random.Random(20241018)
    for trial in range(40):
        cartan = CARTAN_POOL[trial % len(CARTAN_POOL)]
        word = random_reduced_word(rng, cartan, rng.randint(1, 5))
        for k in range(1, word.r + 1):
            prefix = ReducedWord(cartan, word.printed[word.r - k:])
            pattern = to_word(word.printed)
            assert g_V(word, k, pattern) == g_V(prefix, k, pattern)
            if k <= 4:
                assert g_V(word, k) == g_V(prefix, k)


def test_g_v_goldens(word_gamma7):
    assert g_V(word_gamma7, 1) == ws(((1,), 1))
    assert g_V(word_gamma7, 2) == ws(((2, 1, 1), 2))
    assert g_V(word_gamma7, 3) == ws(((1, 2, 1, 2, 1, 1), 4), ((1, 2, 2, 1, 1, 1), 12))
    assert g_V(word_gamma7, 4) == ws(((3, 2, 1, 1), 2))
    g7 = g_V(word_gamma7, 7)
    expected7 = {
        (3, 2, 1, 1, 2, 2, 2, 1, 1, 1, 1): 288,
        (3, 2, 1, 1, 2, 2, 1, 2, 1, 1, 1): 144,
        (3, 2, 1, 2, 1, 2, 2, 1, 1, 1, 1): 96,
        (3, 2, 1, 1, 2, 2, 1, 1, 2, 1, 1): 48,
        (3, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1): 48,
        (3, 2, 1, 2, 1, 2, 1, 2, 1, 1, 1): 48,
        (3, 2, 1, 1, 2, 1, 2, 2, 1, 1, 1): 48,
        (3, 2, 1, 2, 1, 2, 1, 1, 2, 1, 1): 16,
        (3, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1): 16,
        (3, 2, 1, 1, 2, 1, 2, 1, 2, 1, 1): 16,
    }
    assert as_tuples(g7).terms == expected7
    assert g_V(word_gamma7, 5).word_count() == 402


def test_g_v_drops_words_that_cancel(a3):
    """The last lowering round of this g_V cancels two words to 0; neither
    may stay in the sum, and no stored coefficient is 0."""
    g = g_V(ReducedWord(a3, (2, 1, 3, 2)), 4)
    assert to_word((2, 2, 3, 1)) not in g.terms and to_word((2, 2, 1, 3)) not in g.terms
    assert 0 not in g.terms.values()
    assert g == ws(((2, 3, 1, 2), 1), ((2, 1, 3, 2), 1))


def test_g_v_content_and_refined_coefficient(word_gamma7):
    from weylseed.cartan import dim_V

    # k = 6 is a 24-dimensional module whose sum (392,206 words) takes
    # seconds to build; the invariant is exercised by the other six positions
    for k in [1, 2, 3, 4, 5, 7]:
        g = g_V(word_gamma7, k)
        target = dim_V(word_gamma7, k)
        for w in g.terms:
            assert letter_content(letters_of(w), 3) == target
        prefix = ReducedWord(word_gamma7.cartan, word_gamma7.printed[word_gamma7.r - k:])
        lam = fundamental_weight(3, prefix.letter(k))
        b = b_vector(prefix.cartan, prefix.positions, lam)
        fact = 1
        for x in b:
            for m in range(2, x + 1):
                fact *= m
        assert g.terms.get(to_word(refined_word(word_gamma7, k, b)), 0) == fact


def test_phi_eval_single_letter():
    g = ws(((1,), 1))
    val = phi_eval(g, to_word((1,)))
    assert val == LaurentPoly(VarTable(("t1",)), {(1,): 1})


def test_phi_eval_a4(word_a4_running):
    names = [f"t{q}" for q in range(8, 0, -1)]
    table = VarTable(names)

    def mono(*pairs):
        exp = [0] * 8
        for tq, e in pairs:
            exp[table.index(f"t{tq}")] = e
        return tuple(exp)

    pattern = to_word(word_a4_running.printed)
    val1 = phi_eval(g_V(word_a4_running, 1), pattern, names)
    assert val1 == LaurentPoly(table, {mono((5, 1)): 1, mono((1, 1)): 1})
    val8 = phi_eval(g_V(word_a4_running, 8), pattern, names)
    expected8 = LaurentPoly(
        table, {mono((8, 1), (7, 1), (6, 1), (5, 1), (4, 1), (2, 1)): 1}
    )
    assert val8 == expected8


def test_phi_eval_non_integral_raises():
    g = ws(((1, 1), 1))  # coefficient 1 but a (2,) decomposition needs 2!
    with pytest.raises(NonIntegralCoefficientError, match=r"word \[1, 1\] not divisible by 2"):
        phi_eval(g, to_word((1,)))


def test_phi_eval_repeated_pattern_letters():
    # pattern (1, 1) on 2*w[1,1]: decompositions (2,0), (1,1), (0,2)
    g = ws(((1, 1), 2))
    val = phi_eval(g, to_word((1, 1)))
    t = VarTable(("t1", "t2"))
    assert val == LaurentPoly(t, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_euler_of_reachable_identity_and_products(word_gamma7):
    table = VarTable.indexed("y", 7)
    pattern = to_word(word_gamma7.printed)
    yk = LaurentPoly.var(table, "y4")
    assert euler_of_reachable(yk, word_gamma7, pattern) == phi_eval(
        g_V(word_gamma7, 4), pattern
    )
    prod = LaurentPoly.var(table, "y1") * LaurentPoly.var(table, "y4")
    lhs = euler_of_reachable(prod, word_gamma7, pattern)
    rhs = phi_eval(
        shuffle(g_V(word_gamma7, 1), g_V(word_gamma7, 4)), pattern
    )
    assert lhs == rhs


def test_euler_of_reachable_cluster_variable(word_pbw6):
    """A mutated cluster variable evaluates to an honest polynomial."""
    seed = Seed.from_word(word_pbw6).mutate(3)
    expr = seed.cluster[2]
    pattern = to_word(word_pbw6.printed)
    val = euler_of_reachable(expr, word_pbw6, pattern)
    assert val.terms  # nonzero polynomial
    assert all(all(e >= 0 for e in exp) for exp in val.terms)


def test_euler_cross_check_against_dual_basis(word_pbw6):
    """Evaluate a non-initial cluster variable two ways on the full word.

    Directly, and through its dual-basis expansion with each chain
    subquotient evaluated via its own cluster expression.  Short-product
    values follow by specializing unused parameters to zero, since a factor
    with parameter zero is the identity.
    """
    from weylseed.intervals import IntervalLabel, run_mu_i

    report = run_mu_i(word_pbw6)
    values = report.label_values
    # the variable exchanged with position 2: its expansion is m1*m6 - m5
    w2_expr = Seed.from_word(word_pbw6).mutate(3).mutate(2).cluster[1]
    pattern = to_word(word_pbw6.printed)
    direct = euler_of_reachable(w2_expr, word_pbw6, pattern)
    m = {
        k: euler_of_reachable(
            values[IntervalLabel(k, k)], word_pbw6, pattern
        )
        for k in (1, 5, 6)
    }
    assert direct == m[1] * m[6] - m[5]
    # restrict to the two-letter product of positions with letters (2, 1):
    # the flag Euler characteristic is the coefficient of their parameters
    table = direct.vars
    letter2_pos = table.index("t1")
    letter1_pos = table.index("t3")

    def coefficient_of_pair(poly):
        total = 0
        for exp, c in poly.terms.items():
            if exp[letter2_pos] == 1 and exp[letter1_pos] == 1 and sum(exp) == 2:
                total += c
        return total

    assert coefficient_of_pair(direct) == coefficient_of_pair(
        m[1] * m[6] - m[5]
    )


def test_a_sum_drops_zero_coefficients_from_its_own_copy():
    """A sum keeps a copy of the terms it is given, without the zeros, with
    or without a zero among them (``test_g_v_drops_words_that_cancel`` shows
    the same for a lowering)."""
    clean = {to_word((1, 2)): 3, to_word((2,)): -1}
    mixed = {to_word((1,)): 0, **clean}
    for terms in (clean, mixed):
        u = WordSum(terms)
        assert u.terms == clean and u.terms is not terms
    assert mixed[to_word((1,))] == 0
    assert WordSum().terms == {} and WordSum({"": 0}).terms == {}


def test_wordsum_serialization_roundtrip():
    u = ws(((1, 2, 1), 4), ((2,), -1), ((), 3), ((12, 10), 10**20))
    assert wordsum_from_json("".join(u.json_text())) == u


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.lists(st.integers(1, 500) | st.integers(1, 12), max_size=6).map(tuple),
        st.integers(-(10**20), 10**20) | st.integers(-3, 3),
        max_size=12,
    )
)
def test_json_text_is_canonical_json_of_the_oracle(terms):
    """Letters up to the rank limit (above 255 among them), negative and
    20-digit coefficients, words of mixed lengths, the empty word and the zero
    sum."""
    oracle = WordSum(terms)
    assert "".join(as_words(oracle).json_text()) == json.dumps(
        wordsum_json(oracle), sort_keys=True, separators=(",", ":")
    )


JSON_TEXT_CASES = {
    # split after ceil(len / 2) letters: (1,) is the head of (1, 2) and the
    # tail of (2, 1), and the other way round for (2,)
    "head-of-one-tail-of-other": {(1, 2): 1, (2, 1): 1, (1, 2, 1): 2, (2, 1, 2): -2},
    "single-letters": {(1,): 2, (3,): -1, (10,): 4, (44,): 5, (500,): 7},
    # 44 is the code point of ","
    "multi-digit-letters-at-the-split": {
        (10, 44): 1,
        (44, 10): 2,
        (255, 256): 3,
        (256, 255, 500): -4,
        (500, 44, 10, 256): 5,
        (10, 255, 44, 500): 6,
    },
    "mixed-lengths-with-the-empty-word": {(): 3, (2,): 1, (1, 2): -2, (2, 1, 2): 4, (3, 1, 2, 1, 2): 8},
    # the head (1, 2) under three coefficients, and as a tail under a fourth
    "one-half-under-several-coefficients": {
        (1, 2, 3, 1): 1,
        (1, 2, 1, 3): -2,
        (1, 2, 2): 10**20,
        (3, 1, 1, 2): 7,
    },
}


@pytest.mark.parametrize("name", sorted(JSON_TEXT_CASES) + ["all-at-once"])
def test_json_text_memoized_halves_match_the_oracle(name):
    """Each case alone, then all in one sum, so one memo sees every half."""
    if name == "all-at-once":
        terms = {w: c for case in JSON_TEXT_CASES.values() for w, c in case.items()}
    else:
        terms = JSON_TEXT_CASES[name]
    oracle = WordSum(terms)
    assert "".join(as_words(oracle).json_text()) == json.dumps(
        wordsum_json(oracle), sort_keys=True, separators=(",", ":")
    )


def test_json_text_of_the_zero_sum_and_the_unit():
    assert list(WordSum().json_text()) == ['{"terms":[', "]}"]
    assert "".join(WordSum.unit().json_text()) == '{"terms":[{"coef":"1","word":[]}]}'


WORD_EVAL = {"rank": 3, "edges": [[1, 2, 2], [2, 3, 1]], "word": [2, 3, 1, 2, 3, 1]}


def test_json_text_of_a_long_sum_comes_in_small_pieces():
    """The k = 6 sum of the word-eval document (58,625 words, 3.46 MB of
    text) comes as one piece per head: many words a piece, none large."""
    g = g_V(ReducedWord(CartanMatrix.from_edges(3, WORD_EVAL["edges"]), WORD_EVAL["word"]), 6)
    pieces = list(g.json_text())
    assert 1 < len(pieces) < g.word_count() == 58625
    assert max(map(len, pieces)) <= 64 * 1024
    assert wordsum_from_json("".join(pieces)) == g


def decompositions_oracle(u: tuple, pattern) -> list[tuple[int, ...]]:
    """Oracle: all exponent tuples a with pattern^a == u, for letter tuples,
    by recursion over the pattern letters (shortest run first)."""
    p = len(pattern)

    def rec(pos: int, q: int, acc: list[int]):
        if q == p:
            if pos == len(u):
                yield tuple(acc)
            return
        letter = pattern[q]
        run = 0
        while True:
            yield from rec(pos + run, q + 1, acc + [run])
            if pos + run < len(u) and u[pos + run] == letter:
                run += 1
            else:
                return

    return list(rec(0, 0, []))


def has_decomposition(u: tuple, pattern) -> bool:
    """Oracle: whether phi_eval reads the word u for this pattern at all."""
    return bool(decompositions_oracle(u, pattern))


def oracle_patterns(rng: random.Random, word: ReducedWord) -> list[list[int]]:
    """The printed word, random patterns with repeated letters, patterns with
    letters the word does not use (among them one past the rank), and []."""
    printed = list(word.printed)
    absent = [x for x in range(1, word.cartan.n + 2) if x not in printed]
    with_absent = list(printed)
    for letter in absent:
        with_absent.insert(rng.randint(0, len(with_absent)), letter)
    letters = range(1, word.cartan.n + 1)
    repeated = [
        [rng.choice(letters) for _ in range(rng.randint(2, len(printed) + 3))]
        for _ in range(3)
    ]
    return [printed, *repeated, with_absent, absent, []]


@pytest.mark.parametrize("seed", range(4))
def test_pruned_lowering_against_full_sum(seed):
    """g_V(w, k, p) is g_V(w, k) restricted to the words that split into runs
    along p, and both evaluate to the same phi_eval."""
    rng = random.Random(seed)
    for _ in range(8):
        word = random_reduced_word(rng, rng.choice(CARTAN_POOL), rng.randint(2, 6))
        patterns = oracle_patterns(rng, word)
        for k in range(1, word.r + 1):
            full = g_V(word, k)
            for pattern in patterns:
                kept = {
                    u: c
                    for u, c in full.terms.items()
                    if has_decomposition(letters_of(u), pattern)
                }
                letters = to_word(pattern)
                assert all(splits_into_runs(u, letters) == (u in kept) for u in full.terms)
                pruned = g_V(word, k, letters)
                assert pruned.terms == kept
                assert phi_eval(pruned, letters) == phi_eval(full, letters)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=7).map(tuple),
    st.lists(st.integers(1, 4), max_size=6),
)
def test_greedy_run_split_matches_decompositions(u, pattern):
    assert splits_into_runs(to_word(u), to_word(pattern)) == has_decomposition(u, pattern)


def test_pruned_lowering_stays_small(monkeypatch):
    """The [2,3,1,2,3,1] document of the benchmark's word-eval workload: its
    unpruned sum at k = 6 has 58,625 words, and pruning after every lowering
    step keeps the intermediate sums small as well."""
    built = []

    def counting_rho_f(*args):
        out = rho_f(*args)
        built.append(out.word_count())
        return out

    monkeypatch.setattr(words, "rho_f", counting_rho_f)
    word = ReducedWord(CARTAN_POOL[3], (2, 3, 1, 2, 3, 1))
    g = g_V(word, 6, to_word(word.printed))
    assert g.word_count() <= 5
    assert sum(built) <= 1000


def power_of(pattern, runs) -> tuple:
    """Oracle: the letter tuple pattern^runs."""
    return tuple(x for x, m in zip(pattern, runs) for _ in range(m))


# patterns of two letters, so each letter repeats, and a word that is one of
# their powers, so it has at least one decomposition
repeated_letter_cases = st.lists(st.integers(1, 2), min_size=3, max_size=7).flatmap(
    lambda pattern: st.tuples(
        st.lists(st.integers(0, 2), min_size=len(pattern), max_size=len(pattern)).map(
            lambda runs: power_of(pattern, runs)
        ),
        st.just(pattern),
    )
)


# about 300 examples for each of the two strategies
@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.lists(st.integers(1, 3), max_size=7).map(tuple),
            st.lists(st.integers(1, 4), max_size=8),
        ),
        repeated_letter_cases,
    )
)
def test_decompositions_match_the_recursive_oracle(case):
    """The same exponent tuples in the same order, also when pattern letters
    repeat and a word has many decompositions."""
    u, pattern = case
    assert list(_decompositions(to_word(u), to_word(pattern))) == decompositions_oracle(
        u, pattern
    )


def test_decompositions_of_a_pattern_of_thousands_of_letters():
    """Far past the recursion limit: the single letter 2 fits at each of the
    2,500 places of 2 in (1, 2) * 2,500, last place first."""
    pattern = to_word([1, 2] * 2500)
    places = [a.index(1) for a in _decompositions(to_word([2]), pattern)]
    assert places == list(range(4999, 0, -2))
    assert list(_decompositions("", pattern)) == [(0,) * 5000]


def test_phi_eval_on_a_thousand_letter_word(capsys):
    """The default pattern is the whole word, 1,000 letters: the one word of
    g_V at position 1 decomposes once per letter 2 of the pattern."""
    doc = {"rank": 2, "edges": [[1, 2, 2]], "word": [1, 2] * 500, "positions": [1]}
    assert main(["phi-eval", "--inline", json.dumps(doc)]) == 0
    value = json.loads(capsys.readouterr().out)["values"][0]["value"]
    assert len(value["vars"]) == 1000 and len(value["terms"]) == 500


def g_v_oracle(word: ReducedWord, k: int, pattern=None) -> WordSum:
    """Oracle: g_V on letter tuples, each divided power as single insertions
    divided by p!."""
    cartan = word.cartan
    letters = word.positions[:k]
    lam = fundamental_weight(cartan.n, letters[-1])
    acc = WordSum({(): 1})
    for letter, power in reversed(list(zip(letters, b_vector(cartan, letters, lam)))):
        acc = iterated_divided_power(cartan, lam, letter, acc, power, pattern)
    return acc


def phi_eval_oracle(g: WordSum, pattern, names) -> LaurentPoly:
    """Oracle: phi_eval of a sum keyed by letter tuples."""
    terms: dict[tuple[int, ...], int] = {}
    for u, coef in g.terms.items():
        for a in decompositions_oracle(u, pattern):
            denom = math.prod(math.factorial(m) for m in a)
            assert coef % denom == 0
            terms[a] = terms.get(a, 0) + coef // denom
    return LaurentPoly(VarTable(names), terms)


def command_oracle(command: str, doc: dict) -> str:
    """Oracle: the stdout of ``euler-gen`` or ``phi-eval`` on ``doc``."""
    word = ReducedWord(CartanMatrix.from_edges(doc["rank"], doc["edges"]), doc["word"])
    positions = range(1, word.r + 1)
    if command == "euler-gen":
        gfs = [(k, g_v_oracle(word, k)) for k in positions]
        out = {
            "generating_functions": [
                {"k": k, "sum": wordsum_json(g), "words": len(g.terms)} for k, g in gfs
            ]
        }
    else:
        pattern = doc.get("pattern", list(word.printed))
        names = [f"t{q}" for q in range(len(pattern), 0, -1)]
        values = [
            phi_eval_oracle(g_v_oracle(word, k, pattern), pattern, names) for k in positions
        ]
        out = {
            "pattern": pattern,
            "values": [{"k": k, "value": v.to_json()} for k, v in zip(positions, values)],
        }
    return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"


RANK12 = {"rank": 12, "edges": [[10, 11, 1], [11, 12, 2], [1, 12, 1]], "word": [11, 10, 12, 11, 1]}
RANK300 = {
    "rank": 300,
    "edges": [[256, 300, 1], [299, 300, 2], [1, 256, 1]],
    "word": [256, 300, 299, 256, 300, 1],
}


@pytest.mark.parametrize("command", ["euler-gen", "phi-eval"])
@pytest.mark.parametrize(
    "doc",
    [
        RANK12,
        dict(RANK12, pattern=[12, 11, 10, 11, 12, 1, 11]),
        RANK300,
        dict(RANK300, pattern=[300, 256, 300, 299, 1, 256, 300]),
    ],
    ids=["rank12", "rank12-pattern", "rank300", "rank300-pattern"],
)
def test_letters_past_one_digit_and_one_byte(capsys, command, doc):
    """Letters 10..12 print as two digits, and letters 256..300 are past
    one byte; stdout is byte-identical to the letter-tuple oracle."""
    assert main([command, "--inline", json.dumps(doc)]) == 0
    assert capsys.readouterr().out == command_oracle(command, doc)


def test_benchmark_word_counters_read_the_package_words(monkeypatch, capsys):
    """The traced benchmark counts the words of real ``rho_f`` results and
    the useful words of real ``phi_eval`` arguments: with the pattern in the
    words' own encoding every word read is useful."""
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    spans = importlib.import_module("spans")
    calls: dict[str, list] = {"phi": [], "rho": []}

    def recording(key, fn):
        def wrapper(*args):
            result = fn(*args)
            calls[key].append((args, result))
            return result

        return wrapper

    monkeypatch.setattr(cli, "phi_eval", recording("phi", cli.phi_eval))
    monkeypatch.setattr(words, "rho_f", recording("rho", words.rho_f))
    doc = {
        "rank": 3,
        "edges": [[1, 2, 2], [2, 3, 1]],
        "word": [2, 3, 1, 2, 3, 1],
        "pattern": [1, 2, 3, 1, 2, 3, 1],
    }
    assert main(["phi-eval", "--inline", json.dumps(doc)]) == 0
    capsys.readouterr()
    counts: defaultdict = defaultdict(int)
    for args, result in calls["phi"]:
        spans._phi_counts(counts, args, result)
    assert counts["words.phi_eval.words_in"] > 0
    assert counts["words.phi_eval.words_useful"] == counts["words.phi_eval.words_in"]
    expected = 0
    for args, result in calls["rho"]:
        spans._rho_f_counts(counts, args, result)
        cartan, lam, i, u, p, pattern = args
        expected += len(
            iterated_divided_power(cartan, lam, i, as_tuples(u), p, letters_of(pattern)).terms
        )
    assert counts["words.rho_f.words_out"] == expected > 0


def test_rho_f_stops_within_one_word_of_the_limit(monkeypatch, double_edge):
    """The limit is checked after each input word's extensions: here each of
    the 3 input words of length 4 has at most 5 extensions."""
    monkeypatch.setattr(words, "MAX_WORDS", 4)
    u = ws(((2, 3, 2, 3), 1), ((3, 2, 3, 2), 1), ((2, 2, 3, 3), 1))
    with pytest.raises(TermLimitError) as info:
        rho_f(double_edge, (0, 4, 0), 2, u, 2)
    detail = str(info.value)
    m = re.fullmatch(
        r"lowering by letter 2, round 1 of 2: (\d+) words, over the limit of 4", detail
    )
    assert m and 4 < int(m[1]) <= 4 + 5


@pytest.mark.parametrize(
    "command, limit, detail",
    [
        ("euler-gen", 1000, "position 6: lowering by letter 1, round 1 of 6: 1003 words"),
        ("phi-eval", 2, "position 3: lowering by letter 1, round 2 of 2: 3 words"),
    ],
    ids=["euler-gen", "phi-eval"],
)
def test_word_limit_exits_3_naming_the_position(monkeypatch, capsys, command, limit, detail):
    """The word-eval document [2, 3, 1, 2, 3, 1]: euler-gen first goes over
    1,000 words at the k = 6 sum (58,625 words in full), and phi-eval, which
    keeps only the words its pattern reads, over 2 words at k = 3."""
    monkeypatch.setattr(words, "MAX_WORDS", limit)
    assert main([command, "--inline", json.dumps(WORD_EVAL)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "TermLimitError",
        "detail": f"{detail}, over the limit of {limit}",
    }


def test_word_limit_leaves_no_output_file(monkeypatch, capsys, tmp_path):
    """``euler-gen`` lowers every sum before it writes a piece, so going over
    the limit at k = 6 opens no output file."""
    monkeypatch.setattr(words, "MAX_WORDS", 1000)
    path = tmp_path / "out.json"
    assert main(["euler-gen", "--inline", json.dumps(WORD_EVAL), "--output", str(path)]) == 3
    assert capsys.readouterr().out == ""
    assert not path.exists()


def test_euler_gen_peak_is_the_lowering_peak(capsys):
    """Formatting adds at most 5% to the tracemalloc peak of lowering the
    word-eval document's k = 6 sum: the text goes out one piece at a time."""
    argv = ["euler-gen", "--inline", json.dumps(WORD_EVAL)]
    word = ReducedWord(CartanMatrix.from_edges(3, WORD_EVAL["edges"]), WORD_EVAL["word"])
    assert main(argv) == 0  # warm up
    capsys.readouterr()
    tracemalloc.start()
    try:
        g_V(word, 6)
        lowering = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        document = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out) > 3_400_000
    assert document <= 1.05 * lowering
