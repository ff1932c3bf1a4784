"""Reusable randomized invariant checks.

These back both the CLI selftest and the property-test layer.  Every check
takes an explicit RNG seed and returns booleans; hard contract violations
inside the engine raise instead.
"""
from __future__ import annotations

import random

from .cartan import (
    CartanMatrix,
    ReducedWord,
    dim_V,
    is_reduced,
    sym_form,
)
from .homdata import (
    hom_tables,
    initial_delta_labels,
    initial_dimvec_labels,
    mutate_delta_dimvec,
    mutate_dimvec,
    ringel_form_delta,
)
from .intervals import run_mu_i
from .quiver import ExchangeMatrix, Seed
from .words import WordSum, g_V, phi_eval, shuffle, to_word

CARTAN_POOL: tuple[CartanMatrix, ...] = (
    CartanMatrix.from_edges(2, [(1, 2, 1)]),
    CartanMatrix.from_edges(3, [(1, 2, 1), (2, 3, 1)]),
    CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)]),
    CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)]),
    CartanMatrix.from_edges(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)]),
)

# Exchange supports on Cartan data beyond affine type grow exponentially
# with walk depth, so deep exact walks stick to the tame members of the
# pool and the double-edge matrix is walked shallowly.
TAME_POOL: tuple[CartanMatrix, ...] = (
    CARTAN_POOL[0],
    CARTAN_POOL[1],
    CARTAN_POOL[2],
    CARTAN_POOL[4],
)
WILD_DEPTH_CAP = 4


def random_reduced_word(
    rng: random.Random, cartan: CartanMatrix, length: int
) -> ReducedWord:
    """Grow a reduced word letter by letter; shorter output if stuck."""
    printed: list[int] = []
    for _ in range(length):
        letters = list(range(1, cartan.n + 1))
        rng.shuffle(letters)
        for letter in letters:
            candidate = [letter] + printed
            if is_reduced(cartan, candidate):
                printed = candidate
                break
        else:
            break
    return ReducedWord(cartan, printed)


def random_matrix(rng: random.Random, r: int, n_frozen: int) -> ExchangeMatrix:
    mutable = tuple(range(1, r - n_frozen + 1))
    rows = [[0] * len(mutable) for _ in range(r)]
    for ci, v in enumerate(mutable):
        for i in range(1, r + 1):
            if i == v:
                continue
            if i in mutable and i < v:
                continue  # filled by skew symmetry
            val = rng.randint(-2, 2)
            rows[i - 1][ci] = val
            if i in mutable:
                rows[v - 1][i - 1] = -val
    return ExchangeMatrix(r, mutable, rows)


def check_matrix_involution(seed: int, trials: int) -> bool:
    rng = random.Random(seed)
    for _ in range(trials):
        r = rng.randint(2, 6)
        n_frozen = rng.randint(0, r - 2)
        matrix = random_matrix(rng, r, n_frozen)
        k = rng.choice(matrix.mutable)
        if matrix.mutate(k).mutate(k) != matrix:
            return False
    return True


def check_a2_pentagon() -> bool:
    matrix = ExchangeMatrix(2, (1, 2), [[0, -1], [1, 0]])
    seed = Seed.initial(matrix)
    seen = set(seed.cluster)
    current = seed
    for step in range(10):
        k = 1 + step % 2
        current = current.mutate(k)
        seen.add(current.cluster[k - 1])
    return len(seen) == 5 and current.cluster == seed.cluster[:]


def _word_grading(word: ReducedWord) -> dict[str, tuple[int, ...]]:
    return {f"y{k}": dim_V(word, k) for k in range(1, word.r + 1)}


def check_seed_walks(seed: int, words: int, depth: int) -> bool:
    """Random walks from word seeds: exactness, involutivity, homogeneity,
    and dominance of the parallel label mutations."""
    rng = random.Random(seed)
    for trial in range(words):
        wild = trial % 3 == 2
        cartan = CARTAN_POOL[3] if wild else rng.choice(TAME_POOL)
        word = random_reduced_word(rng, cartan, rng.randint(2, 8))
        if not word.r:
            continue
        grading = _word_grading(word)
        tables = hom_tables(word)
        seed_state = Seed.from_word(word)
        dims, dim_totals = map(list, initial_dimvec_labels(tables))
        deltas, delta_totals = map(list, initial_delta_labels(tables))
        if not seed_state.matrix.mutable:
            continue
        last = None
        for _ in range(min(depth, WILD_DEPTH_CAP) if wild else depth):
            choices = [k for k in seed_state.matrix.mutable if k != last]
            if not choices:
                break
            k = rng.choice(choices)
            nxt = seed_state.mutate(k)
            if nxt.mutate(k).cluster != seed_state.cluster:
                return False
            if nxt.cluster[k - 1].multidegree(grading) is None:
                return False
            dims[k - 1], dim_totals[k - 1], _ = mutate_dimvec(seed_state.matrix, dims, dim_totals, k)
            deltas[k - 1], delta_totals[k - 1], _ = mutate_delta_dimvec(
                seed_state.matrix, deltas, delta_totals, k
            )
            if tables.dimvec_of_delta(deltas[k - 1]) != dims[k - 1]:
                return False
            seed_state = nxt
            last = k
    return True


def random_word_sum(rng: random.Random, n: int) -> WordSum:
    terms = {}
    for _ in range(3):
        length = rng.randint(0, 4)
        w = to_word(rng.randint(1, n) for _ in range(length))
        terms[w] = rng.randint(-4, 4)
    return WordSum(terms)


def check_shuffle_axioms(seed: int) -> bool:
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_word_sum(rng, n)
        b = random_word_sum(rng, n)
        c = random_word_sum(rng, n)
        if shuffle(a, b) != shuffle(b, a):
            return False
        if shuffle(shuffle(a, b), c) != shuffle(a, shuffle(b, c)):
            return False
        if shuffle(WordSum.unit(), a) != a:
            return False
    return True


def check_phi_multiplicative(seed: int, trials: int) -> bool:
    rng = random.Random(seed)
    for _ in range(trials):
        cartan = rng.choice(CARTAN_POOL[:3])
        word = random_reduced_word(rng, cartan, rng.randint(2, 5))
        if word.r < 2:
            continue
        pattern = to_word(word.printed)
        j = rng.randint(1, word.r)
        k = rng.randint(1, word.r)
        gj, gk = g_V(word, j), g_V(word, k)
        lhs = phi_eval(shuffle(gj, gk), pattern)
        rhs = phi_eval(gj, pattern) * phi_eval(gk, pattern)
        if lhs != rhs:
            return False
    return True


def check_ringel_expansion(seed: int) -> bool:
    """<f,f> over a filtration expansion equals <d,d> on the root lattice."""
    rng = random.Random(seed)
    for _ in range(8):
        cartan = rng.choice(CARTAN_POOL)
        word = random_reduced_word(rng, cartan, rng.randint(2, 6))
        if not word.r:
            continue
        a = [rng.randint(0, 2) for _ in range(word.r)]
        lhs = sum(
            a[k - 1] * a[s - 1] * ringel_form_delta(word, k, s)
            for k in range(1, word.r + 1)
            for s in range(1, word.r + 1)
        )
        d = [0] * cartan.n
        for k in range(1, word.r + 1):
            for i, x in enumerate(word.beta(k)):
                d[i] += a[k - 1] * x
        if 2 * lhs != sym_form(cartan, tuple(d), tuple(d)):
            return False
    return True


def check_mu_i_small(seed: int) -> bool:
    rng = random.Random(seed)
    for _ in range(3):
        cartan = rng.choice(CARTAN_POOL[:3])
        word = random_reduced_word(rng, cartan, rng.randint(2, 6))
        if not word.r:
            continue
        report = run_mu_i(word)
        if not (report.final_labels_ok and report.chains_reversed):
            return False
    return True


def quick_selftest(seed: int) -> dict[str, bool]:
    return {
        "matrix_involution": check_matrix_involution(seed, trials=300),
        "a2_pentagon": check_a2_pentagon(),
        "seed_walks": check_seed_walks(seed, words=4, depth=6),
        "shuffle_axioms": check_shuffle_axioms(seed),
        "phi_multiplicative": check_phi_multiplicative(seed, trials=4),
        "ringel_expansion": check_ringel_expansion(seed),
        "mu_i_small": check_mu_i_small(seed),
    }
