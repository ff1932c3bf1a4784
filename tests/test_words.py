import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from weylseed import words
from weylseed.acceptance import CARTAN_POOL, random_reduced_word
from weylseed.cartan import ReducedWord, fundamental_weight
from weylseed.errors import NonIntegralCoefficientError, ValidationError
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
)


def ws(*pairs):
    return WordSum({tuple(w): c for w, c in pairs})


def combination(*pairs):
    """Oracle: the sum of c * u over pairs (c, u) of an integer and a WordSum."""
    out = {}
    for c, u in pairs:
        for w, x in u.terms.items():
            out[w] = out.get(w, 0) + c * x
    return WordSum(out)


def wordsum_json(u: WordSum) -> dict:
    """Oracle: the JSON document that ``WordSum.json_text`` writes."""
    ordered = sorted(u.terms.items(), key=lambda t: (len(t[0]), t[0]))
    return {"terms": [{"word": list(w), "coef": str(c)} for w, c in ordered]}


def wordsum_from_json(text: str) -> WordSum:
    """The inverse of ``WordSum.json_text``."""
    doc = json.loads(text)
    return WordSum({tuple(t["word"]): int(t["coef"]) for t in doc["terms"]})


def rho_e(i: int, u: WordSum) -> WordSum:
    """Oracle: the raising operator rho(e_i) strips a trailing letter i."""
    out: dict[tuple[int, ...], int] = {}
    for w, c in u.terms.items():
        if w and w[-1] == i:
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


def letter_content(word, n: int) -> tuple[int, ...]:
    """Oracle: how often each letter 1..n occurs in a word."""
    out = [0] * n
    for letter in word:
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
    st.tuples(st.integers(1, 2), st.integers(1, 2)).map(tuple)
    | st.just(())
    | st.tuples(st.integers(1, 2)).map(tuple),
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
    coroot pairing of lam minus the roots of the prefix before it."""
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
            u = WordSum({w: c for w, c in u.terms.items() if splits_into_runs(w, pattern)})
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
                assert rho_f(cartan, lam, i, u, p, pat) == iterated_divided_power(
                    cartan, lam, i, u, p, pat
                )


def test_g_v_lowers_once_per_nonzero_power(monkeypatch, word_gamma7):
    """Each nonzero entry of the socle multiplicities is one rho_f call."""
    from weylseed.cartan import b_vector

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
            pattern = list(word.printed)
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
    assert g7.terms == expected7
    assert g_V(word_gamma7, 5).word_count() == 402


def test_g_v_drops_words_that_cancel(a3):
    """The last lowering round of this g_V cancels two words to 0; neither
    may stay in the sum, and no stored coefficient is 0."""
    g = g_V(ReducedWord(a3, (2, 1, 3, 2)), 4)
    assert (2, 2, 3, 1) not in g.terms and (2, 2, 1, 3) not in g.terms
    assert 0 not in g.terms.values()
    assert g == ws(((2, 3, 1, 2), 1), ((2, 1, 3, 2), 1))


def test_g_v_content_and_refined_coefficient(word_gamma7):
    from weylseed.cartan import b_vector, dim_V

    # k = 6 is a 24-dimensional module whose sum (392,206 words) takes
    # seconds to build; the invariant is exercised by the other six positions
    for k in [1, 2, 3, 4, 5, 7]:
        g = g_V(word_gamma7, k)
        target = dim_V(word_gamma7, k)
        for w in g.terms:
            assert letter_content(w, 3) == target
        prefix = ReducedWord(word_gamma7.cartan, word_gamma7.printed[word_gamma7.r - k:])
        lam = fundamental_weight(3, prefix.letter(k))
        b = b_vector(prefix.cartan, prefix.positions, lam)
        fact = 1
        for x in b:
            for m in range(2, x + 1):
                fact *= m
        assert g.terms.get(refined_word(word_gamma7, k, b), 0) == fact


def test_phi_eval_single_letter():
    g = ws(((1,), 1))
    val = phi_eval(g, (1,))
    assert val == LaurentPoly(VarTable(("t1",)), {(1,): 1})
    for names in (["a", "b"], []):
        with pytest.raises(ValidationError, match="one variable name per pattern letter"):
            phi_eval(g, (1,), names)


def test_phi_eval_a4(word_a4_running):
    names = [f"t{q}" for q in range(8, 0, -1)]
    table = VarTable(names)

    def mono(*pairs):
        exp = [0] * 8
        for tq, e in pairs:
            exp[table.index(f"t{tq}")] = e
        return tuple(exp)

    val1 = phi_eval(g_V(word_a4_running, 1), word_a4_running.printed, names)
    assert val1 == LaurentPoly(table, {mono((5, 1)): 1, mono((1, 1)): 1})
    val8 = phi_eval(g_V(word_a4_running, 8), word_a4_running.printed, names)
    expected8 = LaurentPoly(
        table, {mono((8, 1), (7, 1), (6, 1), (5, 1), (4, 1), (2, 1)): 1}
    )
    assert val8 == expected8


def test_phi_eval_non_integral_raises():
    g = ws(((1, 1), 1))  # coefficient 1 but a (2,) decomposition needs 2!
    with pytest.raises(NonIntegralCoefficientError):
        phi_eval(g, (1,))


def test_phi_eval_repeated_pattern_letters():
    # pattern (1, 1) on 2*w[1,1]: decompositions (2,0), (1,1), (0,2)
    g = ws(((1, 1), 2))
    val = phi_eval(g, (1, 1))
    t = VarTable(("t1", "t2"))
    assert val == LaurentPoly(t, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_euler_of_reachable_identity_and_products(word_gamma7):
    table = VarTable.indexed("y", 7)
    pattern = list(word_gamma7.printed)
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
    pattern = list(word_pbw6.printed)
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
    pattern = list(word_pbw6.printed)
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


def test_wordsum_serialization_roundtrip():
    u = ws(((1, 2, 1), 4), ((2,), -1), ((), 3), ((12, 10), 10**20))
    assert wordsum_from_json(u.json_text()) == u


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.lists(st.integers(1, 12), max_size=6).map(tuple),
        st.integers(-(10**20), 10**20) | st.integers(-3, 3),
        max_size=12,
    )
)
def test_json_text_is_canonical_json_of_the_oracle(terms):
    """Two-digit letters, negative and 20-digit coefficients, words of mixed
    lengths, the empty word and the zero sum."""
    u = WordSum(terms)
    assert u.json_text() == json.dumps(wordsum_json(u), sort_keys=True, separators=(",", ":"))


def test_json_text_of_the_zero_sum_and_the_unit():
    assert WordSum().json_text() == '{"terms":[]}'
    assert WordSum.unit().json_text() == '{"terms":[{"coef":"1","word":[]}]}'


def has_decomposition(u, pattern) -> bool:
    """Oracle: whether phi_eval reads the word u for this pattern at all."""
    return next(_decompositions(u, pattern), None) is not None


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
                    u: c for u, c in full.terms.items() if has_decomposition(u, pattern)
                }
                assert all(splits_into_runs(u, pattern) == (u in kept) for u in full.terms)
                pruned = g_V(word, k, pattern)
                assert pruned.terms == kept
                assert phi_eval(pruned, pattern) == phi_eval(full, pattern)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=7).map(tuple),
    st.lists(st.integers(1, 4), max_size=6),
)
def test_greedy_run_split_matches_decompositions(u, pattern):
    assert splits_into_runs(u, pattern) == has_decomposition(u, pattern)


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
    g = g_V(word, 6, word.printed)
    assert g.word_count() <= 5
    assert sum(built) <= 1000
