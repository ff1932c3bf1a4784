"""Word sums, the shuffle product, lowering/raising operators, and the
generating functions of Euler characteristics they compute.

A Word is a str with one code point per letter: letter j of 1..n is chr(j).
A WordSum is a finite integer combination of words.  The empty word is the
multiplicative unit of the shuffle product.

Letters are at most ``cartan.MAX_RANK``, far below the surrogate range, and
code-point order is letter order, so words sort as the letter tuples would.
A str caches its hash and compares with memcmp; a tuple re-hashes and compares
element by element on every dict probe and sort.  Letters become words once,
where they come in (``to_word``), and digits again only in ``json_text``.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

from .cartan import MAX_RANK, CartanMatrix, ReducedWord, Weight, b_vector, fundamental_weight
from .errors import NonIntegralCoefficientError, TermLimitError, ValidationError
from .laurent import LaurentPoly, VarTable

Word = str

# Most words one lowering round may hold, checked after each input word's
# extensions.  The README document's largest sum has 392,206 words.
MAX_WORDS = 10**6

# letter j -> ",j": one str.translate per word writes its JSON digits
_DIGITS = {j: ",%d" % j for j in range(1, MAX_RANK + 1)}


def to_word(letters: Iterable[int]) -> Word:
    """The word of a sequence of letters."""
    return "".join(map(chr, letters))


class WordSum:
    """Finite integer combination of words; canonical order is graded-lex."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @staticmethod
    def unit() -> "WordSum":
        return WordSum({"": 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSum) and self.terms == other.terms

    def word_count(self) -> int:
        return len(self.terms)

    def json_text(self) -> str:
        """Canonical JSON text of {"terms": [{"coef": "c", "word": [...]}, ...]}.

        The terms come in (length, word) order: the words are sorted plainly,
        then stably by length.  Each word's letters are written by one
        ``str.translate``, so no dict is built per word.
        """
        terms = self.terms
        words = sorted(terms)
        words.sort(key=len)
        parts = [
            '{"coef":"%d","word":[%s]}' % (terms[w], w.translate(_DIGITS)[1:]) for w in words
        ]
        return '{"terms":[' + ",".join(parts) + "]}"


def _shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    """Multiset of interleavings of two words, with multiplicities."""
    # iterative DP over prefixes: table[(i, j)] = dict of interleavings
    table: dict[tuple[int, int], dict[Word, int]] = {(0, 0): {"": 1}}
    for i in range(len(u) + 1):
        for j in range(len(v) + 1):
            if (i, j) == (0, 0):
                continue
            acc: dict[Word, int] = {}
            if i > 0:
                for w, c in table[(i - 1, j)].items():
                    key = w + u[i - 1]
                    acc[key] = acc.get(key, 0) + c
            if j > 0:
                for w, c in table[(i, j - 1)].items():
                    key = w + v[j - 1]
                    acc[key] = acc.get(key, 0) + c
            table[(i, j)] = acc
    return table[(len(u), len(v))]


def shuffle(a: WordSum, b: WordSum) -> WordSum:
    """Bilinear extension of the commutative shuffle product."""
    out: dict[Word, int] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            for w, mult in _shuffle_words(u, v).items():
                s = out.get(w, 0) + cu * cv * mult
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
    return WordSum(out)


def rho_f(
    cartan: CartanMatrix,
    lam: Weight,
    i: int,
    u: WordSum,
    p: int,
    pattern: Word | None = None,
) -> WordSum:
    """Divided power f_i^(p) of the lowering operator, in one pass.

    For a word w let c_g = lam(alpha_i^vee) - a_{i j_1} - ... - a_{i j_g} be
    the weight of the gap after its first g letters.  Then

        f_i^(p) w = sum over g_1 <= ... <= g_p of
                    prod_s (c_{g_s} - (s - 1)) * (w with an i inserted at each g_s).

    Summing the p! insertion orders of one choice of gaps gives p! times this
    product (a_ii = 2), so the divided power has integer coefficients as it
    stands and nothing is divided.  The letters are inserted left to right:
    round s keeps, for each word, the coefficient of every position of its
    last inserted i and inserts the next i at each later position l, with
    factor (weight of the prefix of length l) + s - 1; a running sum over the
    last positions makes a round one scan per word.

    Each state also carries the factor of the gap just after its leftmost
    last i, so a round starts there and walks right without re-reading the
    prefix: the factor of gap l + 1 in round s + 1 is the factor of gap l in
    round s, plus 1 for the round, minus a_ii for the inserted i.

    With ``pattern``, only the words that split into runs along it are kept,
    after every round (see ``lowering_monomial``).  A round that holds more
    than ``MAX_WORDS`` words raises ``TermLimitError``.
    """
    if not 1 <= i <= cartan.n:
        raise ValidationError(f"letter {i} out of range")
    if p < 0:
        raise ValidationError(f"negative divided power {p}")
    if p == 0:
        return WordSum(u.terms)
    row = cartan.rows[i - 1]
    # letter of the word -> a_{i j}, the factor it takes off the gaps after it
    pairing = {chr(j): a for j, a in enumerate(row, start=1)}
    carry = 1 - row[i - 1]
    letter = chr(i)
    # word -> (first gap to fill, its factor, {position of a last inserted i:
    # coefficient}); position -1 before round 1.  The last round keys by word
    # alone.
    states: dict = {w: (0, lam[i - 1], {-1: c}) for w, c in u.terms.items()}
    for s in range(p):
        last = s == p - 1
        out: dict = {}
        for w, (first, weight, ends) in states.items():
            running = 0
            for l in range(first, len(w) + 1):
                if l > first:
                    weight -= pairing[w[l - 1]]
                running += ends.get(l - 1, 0)
                if weight and running:
                    key = w[:l] + letter + w[l:]
                    if last:
                        out[key] = out.get(key, 0) + weight * running
                        continue
                    state = out.get(key)
                    if state is None:
                        out[key] = (l + 1, weight + carry, {l: weight * running})
                    else:
                        state[2][l] = weight * running
                        if l < state[0] - 1:
                            out[key] = (l + 1, weight + carry, state[2])
            if len(out) > MAX_WORDS:
                raise TermLimitError(
                    f"lowering by letter {i}, round {s + 1} of {p}: {len(out)} words, "
                    f"over the limit of {MAX_WORDS}"
                )
        if pattern is not None:
            out = {w: v for w, v in out.items() if splits_into_runs(w, pattern)}
        states = out
    return WordSum(states)


def splits_into_runs(u: Word, pattern: Word) -> bool:
    """Whether u is pattern[0]^a_1 ... pattern[-1]^a_p for some a_q >= 0.

    Taking the longest run at each pattern letter is enough: after each
    pattern letter it has read at least as far into u as any split has.
    """
    pos, n = 0, len(u)
    for letter in pattern:
        while pos < n and u[pos] == letter:
            pos += 1
    return pos == n


def lowering_monomial(
    cartan: CartanMatrix,
    lam: Weight,
    letters_with_powers: Sequence[tuple[int, int]],
    pattern: Word | None,
) -> WordSum:
    """Apply a product of divided powers of lowering operators to the empty word.

    ``letters_with_powers`` is read left to right as the operator product, so
    the last pair acts first.  Each nonzero power is one call of ``rho_f``,
    whose closed form gives the divided power with integer coefficients, so
    nothing is divided.

    With ``pattern``, only the words that split into runs along it are kept,
    after every inserted letter.  Lowering only inserts letters, and deleting
    letters from such a word leaves one, so every word a kept word comes from
    is kept too: the kept coefficients are those of the full sum.
    """
    acc = WordSum.unit()
    for letter, power in reversed(list(letters_with_powers)):
        if power:
            acc = rho_f(cartan, lam, letter, acc, power, pattern)
    return acc


def g_V(word: ReducedWord, k: int, pattern: Word | None = None) -> WordSum:
    """Generating function of Euler characteristics of composition flags.

    Computed by acting with the divided-power lowering monomial prescribed by
    the socle-series multiplicities of the length-k prefix word
    (i_k, ..., i_1); 1 <= k <= r.  With ``pattern``, only the words
    ``phi_eval`` reads for that pattern are built.
    """
    cartan = word.cartan
    letters = word.positions[:k]
    lam = fundamental_weight(cartan.n, letters[-1])
    ops = list(zip(letters, b_vector(cartan, letters, lam)))
    return lowering_monomial(cartan, lam, ops, pattern)


def _decompositions(u: Word, pattern: Word) -> Iterator[tuple[int, ...]]:
    """All exponent tuples a with pattern^a == u (runs of length >= 0).

    A depth-first search that tries the shortest run first.  It keeps one
    list of run lengths and backtracks in place, so a long pattern needs no
    deeper stack; once u is used up, every later run is empty.
    """
    p, n = len(pattern), len(u)
    runs = [0] * p  # the runs after the current letter q are 0
    starts = [0] * p
    q = pos = 0
    while True:
        if pos == n:
            yield tuple(runs)
        elif q < p:
            starts[q] = pos
            q += 1
            continue
        # backtrack to the last letter whose run can take one more letter
        while True:
            q -= 1
            if q < 0:
                return
            end = starts[q] + runs[q]
            if end < n and u[end] == pattern[q]:
                runs[q] += 1
                pos = end + 1
                q += 1
                break
            runs[q] = 0


def phi_eval(
    g: WordSum,
    pattern: Word,
    var_names: Sequence[str] | None = None,
) -> LaurentPoly:
    """Evaluate a generating function on a one-parameter product.

    ``pattern`` is the word of the product's letters, left to right; variable
    q of the result is the parameter of the q-th factor.  The coefficient of
    t^a is the flag Euler characteristic for exponents a, i.e. the word
    coefficient divided by the product of factorials; integrality of that
    division is asserted.
    """
    p = len(pattern)
    if var_names is None:
        var_names = [f"t{q}" for q in range(1, p + 1)]
    elif len(var_names) != p:
        raise ValidationError("need one variable name per pattern letter")
    terms: dict[tuple[int, ...], int] = {}
    for u, coef in g.terms.items():
        for a in _decompositions(u, pattern):
            denom = 1
            for m in a:
                denom *= math.factorial(m)
            if coef % denom:
                raise NonIntegralCoefficientError(
                    f"coefficient {coef} of word {list(map(ord, u))} not divisible by {denom}"
                )
            terms[a] = terms.get(a, 0) + coef // denom
    return LaurentPoly(VarTable(var_names), terms)
