import random

import pytest

from weylseed.acceptance import (
    CARTAN_POOL,
    TAME_POOL,
    WILD_DEPTH_CAP,
    random_matrix,
    random_reduced_word,
)
from weylseed.cartan import CartanMatrix, QuiverOrientation, ReducedWord, dim_V
from weylseed.errors import ValidationError
from weylseed.intervals import mu_i_plan
from weylseed.laurent import LaurentPoly
from weylseed.quiver import (
    ExchangeMatrix,
    Quiver,
    Seed,
    SeedRegistry,
    WorkingMatrix,
    acyclic_double,
    b_matrix,
    coefficient_free_matrix,
    denominator_vector,
    gamma_i,
    y_dagger,
)

E8_EDGES = [[5, 6, 1], [6, 8, 1], [7, 8, 1], [8, 4, 1], [4, 3, 1], [3, 2, 1], [2, 1, 1]]
E8_WORD = ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15)
GAMMA7_ARROWS = [
    (1, 2, 2),
    (2, 3, 2),
    (2, 4, 1),
    (3, 1, 1),
    (3, 5, 2),
    (4, 5, 1),
    (5, 2, 1),
    (5, 6, 2),
    (5, 7, 1),
    (6, 3, 1),
    (7, 4, 1),
]

MUT7_ARROWS = [
    (1, 2, 2),
    (2, 3, 1),
    (2, 4, 2),
    (3, 5, 1),
    (4, 1, 1),
    (4, 5, 2),
    (5, 2, 1),
    (5, 6, 1),
    (5, 7, 2),
    (6, 3, 1),
    (7, 4, 1),
]


def test_gamma_seven_letter(word_gamma7):
    q = gamma_i(word_gamma7)
    assert q.r == 7
    assert q.frozen == frozenset({5, 6, 7})
    assert sorted(q.arrows) == sorted(GAMMA7_ARROWS)


def test_gamma_mutation_example(word_mut7):
    q = gamma_i(word_mut7)
    assert q.frozen == frozenset({5, 6, 7})
    assert sorted(q.arrows) == sorted(MUT7_ARROWS)


def gamma_arrows_by_scan(word: ReducedWord) -> list[tuple[int, int, int]]:
    """Oracle: every pair s < t < s+ walked; q_{i_s, i_t} arrows s -> t when
    t+ >= s+, and one arrow s -> s- when s- > 0."""
    arrows = []
    for s in range(1, word.r + 1):
        if word.k_minus(s):
            arrows.append((s, word.k_minus(s), 1))
        for t in range(s + 1, word.k_plus(s)):
            q = word.cartan.q(word.letter(s), word.letter(t))
            if word.k_plus(t) >= word.k_plus(s) and q:
                arrows.append((s, t, q))
    return sorted(arrows)


def b_matrix_by_pairs(quiver: Quiver) -> list[list[int]]:
    """Oracle: b_ij = #(j -> i) - #(i -> j) looked up for every pair."""
    mult = {(s, t): m for s, t, m in quiver.arrows}
    return [
        [mult.get((j, i), 0) - mult.get((i, j), 0) for j in quiver.mutable]
        for i in range(1, quiver.r + 1)
    ]


def dense_rows(m: ExchangeMatrix) -> list[list[int]]:
    return m.to_json()["rows"]


def test_gamma_and_b_matrix_against_pair_scans(word_wild10):
    rng = random.Random(11)
    words = [E8_WORD, word_wild10]
    words += [random_reduced_word(rng, rng.choice(CARTAN_POOL), rng.randint(1, 12)) for _ in range(30)]
    for w in words:
        quiver = gamma_i(w)
        assert list(quiver.arrows) == gamma_arrows_by_scan(w)
        assert dense_rows(b_matrix(quiver)) == b_matrix_by_pairs(quiver)
    # arrows both ways between two frozen vertices are not representable
    quiver = Quiver(4, frozenset({3, 4}), ((1, 3, 2), (3, 4, 1), (4, 3, 1), (4, 2, 3), (2, 1, 1)))
    assert dense_rows(b_matrix(quiver)) == b_matrix_by_pairs(quiver)


def test_b_matrix_equals_the_checking_constructor(word_wild10):
    """``b_matrix`` skips the skew check; its matrix must equal, and hash
    like, the one the checking constructor builds from the dense rows, on
    random words of the wild rank-3 matrix and of D4, and on prefixes of
    the E8 word, each also with its arrows listed in reverse."""
    rng = random.Random(19)
    words = [word_wild10] + [ReducedWord(E8_WORD.cartan, E8_WORD.printed[:n]) for n in (1, 9, 40, 120)]
    words += [random_reduced_word(rng, CARTAN_POOL[3], rng.randint(1, 12)) for _ in range(20)]
    words += [random_reduced_word(rng, CARTAN_POOL[4], rng.randint(1, 12)) for _ in range(20)]
    quivers = [gamma_i(w) for w in words]
    quivers += [Quiver(q.r, q.frozen, q.arrows[::-1]) for q in quivers]
    for quiver in quivers:
        fast = b_matrix(quiver)
        checked = ExchangeMatrix(quiver.r, quiver.mutable, b_matrix_by_pairs(quiver))
        assert fast == checked and hash(fast) == hash(checked)
        for k in fast.mutable:
            assert fast.neighbors(k) == checked.neighbors(k)


def test_gamma_distinct_letters(a4):
    w = ReducedWord(a4, (4, 3, 2, 1))
    q = gamma_i(w)
    assert q.frozen == frozenset({1, 2, 3, 4})
    # no horizontal arrows and only ordinary ones between neighbors
    assert all(s < t for s, t, _ in q.arrows)


def test_b_matrix_basics():
    q = Quiver(2, frozenset({2}), ((1, 2, 1),))
    m = b_matrix(q)
    assert dense_rows(m) == [[0], [1]]
    empty = b_matrix(Quiver(3, frozenset({3}), ()))
    assert dense_rows(empty) == [[0, 0], [0, 0], [0, 0]]


def test_b_matrix_principal_skew(word_gamma7):
    m = b_matrix(gamma_i(word_gamma7))
    for i in m.mutable:
        for j in m.mutable:
            assert m.entry(i, j) == -m.entry(j, i)


def test_matrix_mutate_sign_flip():
    m = ExchangeMatrix(2, (1,), [[0], [1]])
    assert dense_rows(m.mutate(1)) == [[0], [-1]]


def test_matrix_mutate_involution_random():
    rng = random.Random(7)
    for _ in range(1000):
        r = rng.randint(2, 6)
        m = random_matrix(rng, r, rng.randint(0, r - 2))
        k = rng.choice(m.mutable)
        assert m.mutate(k).mutate(k) == m


def test_equal_matrices_hash_alike(word_wild10):
    """``__hash__`` reads each column as a set of entries, so equal matrices
    hash alike whatever order their columns hold: the checking constructor
    against ``b_matrix`` and against random matrices rebuilt from their rows,
    and ``mutate(k).mutate(k)`` round trips over random matrices."""
    rng = random.Random(47)
    words = [E8_WORD, word_wild10]
    words += [random_reduced_word(rng, rng.choice(CARTAN_POOL), rng.randint(1, 12)) for _ in range(20)]
    matrices = [b_matrix(gamma_i(w)) for w in words]
    for _ in range(300):
        r = rng.randint(2, 10)
        matrices.append(random_matrix(rng, r, rng.randint(0, r - 2)))
    round_trips = 0
    for m in matrices:
        rebuilt = ExchangeMatrix(m.r, m.mutable, dense_rows(m))
        assert rebuilt == m and hash(rebuilt) == hash(m)
        for k in m.mutable:
            back = m.mutate(k).mutate(k)
            assert back == m and hash(back) == hash(m)
            round_trips += 1
    assert round_trips > 1000


def dense_mutate(m: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Oracle: every entry from the mutation formula, rebuilt through the
    fully checking constructor."""
    c = m.mutable.index(k)
    rows = dense_rows(m)
    out = []
    for i in range(1, m.r + 1):
        row = []
        b_ik = rows[i - 1][c]
        for j, v in enumerate(m.mutable):
            b_ij = rows[i - 1][j]
            b_kj = rows[k - 1][j]
            if i == k or v == k:
                row.append(-b_ij)
            else:
                row.append(b_ij + (abs(b_ik) * b_kj + b_ik * abs(b_kj)) // 2)
        out.append(row)
    return ExchangeMatrix(m.r, m.mutable, out)


def test_matrix_mutate_against_dense_oracle():
    rng = random.Random(41)
    for _ in range(300):
        r = rng.randint(2, 12)
        m = random_matrix(rng, r, rng.randint(0, r - 2))
        k = rng.choice(m.mutable)
        assert dense_rows(m.mutate(k)) == dense_rows(dense_mutate(m, k))
    for _ in range(40):
        r = rng.randint(2, 12)
        m = random_matrix(rng, r, rng.randint(0, r - 2))
        oracle = m
        for _ in range(20):
            k = rng.choice(m.mutable)
            m, oracle = m.mutate(k), dense_mutate(oracle, k)
            assert m == oracle and dense_rows(m) == dense_rows(oracle)
            assert hash(m) == hash(oracle)


def in_neighbors(m: ExchangeMatrix, k: int) -> list[tuple[int, int]]:
    """Oracle: (vertex, multiplicity) pairs with arrows vertex -> k, one scan
    of the dense column."""
    c, rows = m.mutable.index(k), dense_rows(m)
    return [(i, -rows[i - 1][c]) for i in range(1, m.r + 1) if rows[i - 1][c] < 0]


def out_neighbors(m: ExchangeMatrix, k: int) -> list[tuple[int, int]]:
    """Oracle: (vertex, multiplicity) pairs with arrows k -> vertex, a second scan."""
    c, rows = m.mutable.index(k), dense_rows(m)
    return [(i, rows[i - 1][c]) for i in range(1, m.r + 1) if rows[i - 1][c] > 0]


def quiver_of_matrix(matrix: ExchangeMatrix) -> Quiver:
    """Tracked part of the quiver; frozen-frozen arrows are unknown and omitted."""
    arrows: dict[tuple[int, int], int] = {}
    frozen = matrix.frozen
    for k in matrix.mutable:
        ins, outs = matrix.neighbors(k)
        for i, m in outs:
            arrows[(k, i)] = m
        # frozen -> mutable arrows only show up as in-neighbors
        for i, m in ins:
            if i in frozen:
                arrows[(i, k)] = m
    return Quiver(
        matrix.r,
        frozen,
        tuple((s, t, m) for (s, t), m in sorted(arrows.items())),
    )


def test_neighbors_against_two_scan_oracle():
    rng = random.Random(43)
    for _ in range(300):
        r = rng.randint(3, 12)
        m = random_matrix(rng, r, rng.randint(1, r - 2))
        for k in m.mutable:
            assert m.neighbors(k) == (in_neighbors(m, k), out_neighbors(m, k))
    with pytest.raises(ValidationError, match=f"vertex {r} is frozen or absent"):
        m.neighbors(r)


def test_matrix_mutate_along_word_quiver_against_dense_oracle(word_wild10):
    m = oracle = b_matrix(gamma_i(word_wild10))
    rng = random.Random(5)
    for _ in range(20):
        k = rng.choice(m.mutable)
        m, oracle = m.mutate(k), dense_mutate(oracle, k)
        assert dense_rows(m) == dense_rows(oracle)
        for v in m.mutable:
            assert m.neighbors(v) == (in_neighbors(oracle, v), out_neighbors(oracle, v))


def test_matrix_rejects_non_skew_principal_part():
    with pytest.raises(ValidationError, match="skew"):
        ExchangeMatrix(2, (1, 2), [[0, -1], [2, 0]])
    with pytest.raises(ValidationError, match="skew"):
        ExchangeMatrix(2, (1,), [[1], [0]])  # nonzero diagonal
    with pytest.raises(ValidationError, match="skew"):
        ExchangeMatrix(2, (1, 2), [[0, 0], [1, 0]])  # b_21 = 1 but b_12 = 0
    # frozen rows are not part of the principal part
    assert ExchangeMatrix(3, (1, 2), [[0, -1], [1, 0], [5, -3]]).r == 3
    doc = {"vertices": 3, "mutable": [1, 2], "rows": [[0, -1], [2, 0], [5, -3]]}
    with pytest.raises(ValidationError, match="skew"):
        ExchangeMatrix.from_json(doc)


def test_mutation_keeps_the_principal_part_skew_symmetric(wild3):
    """Matrix mutation keeps a skew-symmetric principal part skew-symmetric,
    so ``mutate`` builds its columns unchecked: each result, rebuilt through
    the checking constructor from its ``to_json`` rows, equals itself.  Over
    300 random matrices along random paths of up to 8 steps, and along the
    full ``mu_i_plan`` of E8 ``(8..1)×15`` and of the three wild
    ``chain-pass`` words."""
    rng = random.Random(30)
    paths = []
    for _ in range(300):
        r = rng.randint(2, 10)
        m = random_matrix(rng, r, rng.randint(0, r - 2))
        paths.append((m, [rng.choice(m.mutable) for _ in range(rng.randint(1, 8))]))
    words = [
        E8_WORD,
        ReducedWord(wild3, (1, 2, 3, 1, 3, 1, 2, 3, 1, 3)),
        ReducedWord(wild3, (2, 3, 1, 3, 2, 3, 2, 1, 3)),
        ReducedWord(wild3, (3, 2, 3, 2, 1, 3, 2, 1, 3)),
    ]
    for word in words:
        paths.append((b_matrix(gamma_i(word)), [step.vertex for step in mu_i_plan(word).steps]))
    for m, path in paths:
        for k in path:
            m = m.mutate(k)
            assert ExchangeMatrix.from_json(m.to_json()) == m


def test_matrix_from_json_rejects_malformed_documents():
    good = {"vertices": 2, "mutable": [1, 2], "rows": [[0, -1], [1, 0]]}
    assert dense_rows(ExchangeMatrix.from_json(good)) == [[0, -1], [1, 0]]
    bad = [
        [],
        {"vertices": 2, "mutable": [1, 2]},
        dict(good, vertices="2"),
        dict(good, mutable=[1, True]),
        dict(good, rows=[[0, -1], [1, 0.0]]),
        dict(good, rows=[[0, -1], 7]),
        dict(good, mutable=[1, 1]),
        dict(good, mutable=[1, 3]),
        dict(good, rows=[[0, -1]]),
    ]
    for doc in bad:
        with pytest.raises(ValidationError):
            ExchangeMatrix.from_json(doc)


def test_matrix_mutate_frozen_rejected(word_gamma7):
    m = b_matrix(gamma_i(word_gamma7))
    with pytest.raises(ValidationError, match="vertex 5 is frozen or absent"):
        m.mutate(5)


def test_mutated_quiver_matches_printed_example(word_mut7):
    """Mutation at vertex 4 of the seven-letter example.

    The composite arrows 2 -> 4 -> 1 cancel the two original arrows 1 -> 2,
    so no arrows remain between vertices 1 and 2; the triple arrow 2 -> 5
    appears as drawn.
    """
    m = b_matrix(gamma_i(word_mut7)).mutate(4)
    q = quiver_of_matrix(m)
    arrows = set(q.arrows)
    expected = {
        (4, 7, 1),
        (1, 4, 1),
        (5, 4, 2),
        (4, 2, 2),
        (7, 1, 1),
        (2, 3, 1),
        (2, 5, 3),
        (3, 5, 1),
        (6, 3, 1),
    }
    assert arrows == expected
    # double application restores the original quiver
    assert quiver_of_matrix(m.mutate(4)) == quiver_of_matrix(
        b_matrix(gamma_i(word_mut7))
    )


def test_seed_mutation_involution(word_gamma7):
    seed = Seed.from_word(word_gamma7)
    for k in (1, 2, 3, 4):
        back = seed.mutate(k).mutate(k)
        assert back.cluster == seed.cluster
        assert back.matrix == seed.matrix


def test_a2_pentagon():
    matrix = ExchangeMatrix(2, (1, 2), [[0, -1], [1, 0]])
    seed = Seed.initial(matrix)
    variables = set(seed.cluster)
    dens = {denominator_vector(seed, 1), denominator_vector(seed, 2)}
    current = seed
    for step in range(10):
        k = 1 + step % 2
        current = current.mutate(k)
        variables.add(current.cluster[k - 1])
        dens.add(denominator_vector(current, k))
    assert len(variables) == 5
    assert current.cluster == seed.cluster
    # the five variables carry five distinct denominator vectors
    assert dens == {(-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)}


def test_denominator_vectors(word_gamma7):
    seed = Seed.from_word(word_gamma7)
    for pos in seed.matrix.mutable:
        expected = tuple(
            -1 if v == pos else 0 for v in seed.matrix.mutable
        )
        assert denominator_vector(seed, pos) == expected
    mutated = seed.mutate(1)
    assert denominator_vector(mutated, 1)[0] == 1


def test_exchange_homogeneous(word_gamma7):
    grading = {f"y{k}": dim_V(word_gamma7, k) for k in range(1, 8)}
    seed = Seed.from_word(word_gamma7)
    rng = random.Random(3)
    last = None
    for _ in range(6):
        k = rng.choice([v for v in seed.matrix.mutable if v != last])
        seed = seed.mutate(k)
        assert seed.cluster[k - 1].multidegree(grading) is not None
        last = k


def test_seed_registry_dedup(word_gamma7):
    seed = Seed.from_word(word_gamma7)
    reg = SeedRegistry()
    assert reg.insert_if_absent(seed)
    assert not reg.insert_if_absent(seed.mutate(1).mutate(1))
    assert reg.insert_if_absent(seed.mutate(2))


def test_seed_registry_ignores_term_order(word_gamma7):
    """Seeds are compared by value: the order a cluster variable's terms
    were inserted in does not make two equal seeds distinct."""
    seed = Seed.from_word(word_gamma7).mutate(1)
    variable = seed.cluster[0]
    assert len(variable.terms) > 1
    reordered = LaurentPoly(variable.vars, dict(reversed(list(variable.terms.items()))))
    assert list(reordered.terms) != list(variable.terms)
    twin = Seed(seed.matrix, (reordered,) + seed.cluster[1:])
    reg = SeedRegistry()
    assert reg.insert_if_absent(seed)
    assert not reg.insert_if_absent(twin)
    assert reg.collisions == []


def test_acyclic_double_and_dagger():
    ori = QuiverOrientation.from_arrows(3, [(1, 3, 1), (2, 3, 1)])
    word = acyclic_double(ori)
    assert word.printed == (3, 2, 1, 3, 2, 1)
    matrix = coefficient_free_matrix(ori)
    initial = Seed.initial(matrix)
    dagger = y_dagger(initial)
    assert dagger.matrix == matrix
    assert not set(initial.cluster) & set(dagger.cluster)


def test_acyclic_a2_dagger_distinct():
    ori = QuiverOrientation.from_arrows(2, [(1, 2, 1)])
    with pytest.raises(
        ValidationError, match="squared Coxeter word is not reduced for linearly oriented type A"
    ):
        acyclic_double(ori)
    matrix = coefficient_free_matrix(ori)
    initial = Seed.initial(matrix)
    dagger = y_dagger(initial)
    assert dagger.matrix == matrix
    assert not set(initial.cluster) & set(dagger.cluster)


def parent_coefficient_free_matrix(orientation):
    """Oracle: b_ij = #(j -> i) - #(i -> j) over the merged arrow counts."""
    n = orientation.cartan.n
    mult = {}
    for s, t, m in orientation.arrows:
        mult[(s, t)] = mult.get((s, t), 0) + m
    rows = [
        [mult.get((j, i), 0) - mult.get((i, j), 0) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return ExchangeMatrix(n, tuple(range(1, n + 1)), rows)


def test_coefficient_free_matrix_against_oracle():
    """The acceptance-criterion-9 generator, with random directions and
    double arrows sometimes given as two single entries."""
    rng = random.Random(20240801)
    for _ in range(60):
        n = rng.randint(2, 5)
        arrows = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.6:
                    s, t = (i, j) if rng.random() < 0.5 else (j, i)
                    m = rng.randint(1, 2)
                    arrows += [(s, t, 1)] * m if rng.random() < 0.5 else [(s, t, m)]
        orientation = QuiverOrientation.from_arrows(n, arrows)
        assert coefficient_free_matrix(orientation) == parent_coefficient_free_matrix(orientation)
    two_cycle = QuiverOrientation.from_arrows(2, [(1, 2, 1), (2, 1, 1)])
    with pytest.raises(ValidationError):
        coefficient_free_matrix(two_cycle)


def test_acyclic_rejects_cycles():
    with pytest.raises(ValidationError, match="quiver has an oriented cycle"):
        acyclic_double(
            QuiverOrientation.from_arrows(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
        )


def test_specialize_frozen(word_gamma7):
    seed = Seed.from_word(word_gamma7).mutate(4)
    specialized = seed.specialize_frozen()
    for poly in specialized:
        for exp in poly.terms:
            assert all(exp[v - 1] == 0 for v in seed.matrix.frozen)


def specialize_by_substitution(seed):
    """Oracle: the cluster with the image one substituted for every frozen
    initial variable and each mutable one mapped to itself."""
    if not seed.cluster:
        return ()
    table = seed.cluster[0].vars
    one = LaurentPoly.one(table)
    frozen = seed.matrix.frozen
    images = {
        name: one if v in frozen else LaurentPoly.var(table, name)
        for v, name in enumerate(table.names, start=1)
    }
    return tuple(x.substitute(images) for x in seed.cluster)


def test_specialize_frozen_against_substitution():
    """Random tame and wild words along random mutation paths, so that
    negative exponents occur."""
    rng = random.Random(20241018)
    negative = 0
    for trial in range(30):
        wild = trial % 3 == 2
        cartan = CARTAN_POOL[3] if wild else rng.choice(TAME_POOL)
        seed = Seed.from_word(random_reduced_word(rng, cartan, rng.randint(2, 7)))
        assert seed.specialize_frozen() == specialize_by_substitution(seed)
        for _ in range(WILD_DEPTH_CAP if wild else 6):
            if not seed.matrix.mutable:
                break
            seed = seed.mutate(rng.choice(seed.matrix.mutable))
            assert seed.specialize_frozen() == specialize_by_substitution(seed)
            negative += any(min(exp) < 0 for x in seed.cluster for exp in x.terms)
    assert negative


def test_matrix_json_roundtrip(word_gamma7):
    m = b_matrix(gamma_i(word_gamma7))
    assert ExchangeMatrix.from_json(m.to_json()) == m


def test_mutation_shares_every_column_it_does_not_rewrite(word_wild10):
    """After ``mutate(k)`` every column other than k and its mutable
    neighbors is the same object as before, and the input matrix is
    unchanged: along the E8 plan, on a wild word quiver and on random
    matrices."""
    rng = random.Random(23)
    paths = [
        (b_matrix(gamma_i(E8_WORD)), [step.vertex for step in mu_i_plan(E8_WORD).steps]),
        (b_matrix(gamma_i(word_wild10)), [rng.choice(gamma_i(word_wild10).mutable) for _ in range(30)]),
    ]
    for _ in range(40):
        r = rng.randint(3, 12)
        m = random_matrix(rng, r, rng.randint(0, r - 2))
        paths.append((m, [rng.choice(m.mutable) for _ in range(10)]))
    for m, path in paths:
        for k in path:
            before = dense_rows(m)
            rewritten = {k} | {i for i in m.cols[k] if i in m.cols}
            mutated = m.mutate(k)
            assert dense_rows(m) == before
            shared = [v for v in m.mutable if mutated.cols[v] is m.cols[v]]
            assert sorted(shared) == sorted(set(m.mutable) - rewritten)
            m = mutated


def test_hash_does_not_depend_on_column_order(word_wild10):
    """A matrix whose columns were filled in reversed order, by ``b_matrix``
    from the reversed arrow list or by reversing each column of a random
    matrix, equals the original and hashes alike."""
    rng = random.Random(53)
    words = [E8_WORD, word_wild10]
    words += [random_reduced_word(rng, rng.choice(CARTAN_POOL), rng.randint(2, 12)) for _ in range(30)]
    pairs = []
    for w in words:
        quiver = gamma_i(w)
        backwards = Quiver(quiver.r, quiver.frozen, quiver.arrows[::-1])
        pairs.append((b_matrix(quiver), b_matrix(backwards)))
    for _ in range(100):
        r = rng.randint(3, 10)
        m = random_matrix(rng, r, rng.randint(0, r - 2))
        flipped = {v: dict(reversed(col.items())) for v, col in m.cols.items()}
        pairs.append((m, ExchangeMatrix._of_columns(m.r, m.mutable, flipped)))
    reordered = 0
    for m, other in pairs:
        assert other == m and hash(other) == hash(m)
        reordered += [list(c) for c in m.cols.values()] != [list(c) for c in other.cols.values()]
    assert reordered > 100


CHAIN_PASS_WORDS = (
    (1, 2, 3, 1, 3, 1, 2, 3, 1, 3),
    (2, 3, 1, 3, 2, 3, 2, 1, 3),
    (3, 2, 3, 2, 1, 3, 2, 1, 3),
)


def test_working_matrix_against_oracles(wild3):
    """A ``WorkingMatrix`` mutated in place reads, at every step, the
    neighbours of the mutated vertex that the two-scan oracle reads, and ends
    at the matrix that the folds of ``ExchangeMatrix.mutate`` and of
    ``dense_mutate`` reach, with its start matrix unchanged: along the E8
    plan, the plans of the three chain-pass words, random paths on random
    word quivers and random matrices."""
    rng = random.Random(61)
    paths = [(b_matrix(gamma_i(E8_WORD)), [step.vertex for step in mu_i_plan(E8_WORD).steps])]
    for printed in CHAIN_PASS_WORDS:
        word = ReducedWord(wild3, printed)
        paths.append((b_matrix(gamma_i(word)), [step.vertex for step in mu_i_plan(word).steps]))
    for _ in range(30):
        m = b_matrix(gamma_i(random_reduced_word(rng, rng.choice(CARTAN_POOL), rng.randint(4, 12))))
        if m.mutable:
            paths.append((m, [rng.choice(m.mutable) for _ in range(15)]))
    for _ in range(40):
        r = rng.randint(3, 12)
        m = random_matrix(rng, r, rng.randint(0, r - 2))
        paths.append((m, [rng.choice(m.mutable) for _ in range(15)]))
    for start, path in paths:
        before = dense_rows(start)
        working, folded, dense = WorkingMatrix(start), start, start
        for k in path:
            assert working.neighbors(k) == (in_neighbors(dense, k), out_neighbors(dense, k))
            working.mutate(k)
            folded, dense = folded.mutate(k), dense_mutate(dense, k)
        final = working.matrix()
        assert final == folded == dense and hash(final) == hash(folded) == hash(dense)
        assert dense_rows(final) == dense_rows(dense)
        assert dense_rows(start) == before
