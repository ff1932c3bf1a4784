import contextlib
import io
import json
import random

import pytest

from weylseed.acceptance import CARTAN_POOL, random_reduced_word
from weylseed.cartan import CartanMatrix, ReducedWord, sym_form
from weylseed.errors import MismatchError, NegativeEntryError
from weylseed.cli import main
from weylseed.homdata import (
    HomTables,
    hom_tables,
    initial_delta_labels,
    initial_dimvec_labels,
    mutate_delta_dimvec,
    mutate_dimvec,
    ringel_form_delta,
)
from weylseed.quiver import ExchangeMatrix, b_matrix, gamma_i

E8 = CartanMatrix.from_edges(
    8, [(5, 6, 1), (6, 8, 1), (7, 8, 1), (8, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)]
)

# columns of dim Hom(V_k, M_s) for the word (1,3,2,1,3,2,1), vertex order
DELTA_COLUMNS = {
    1: (1, 2, 2, 3, 6, 4, 9),
    2: (0, 1, 1, 2, 4, 3, 6),
    3: (0, 0, 1, 0, 1, 0, 2),
    4: (0, 0, 0, 1, 2, 2, 3),
    5: (0, 0, 0, 0, 1, 1, 2),
    6: (0, 0, 0, 0, 0, 1, 0),
    7: (0, 0, 0, 0, 0, 0, 1),
}

PROJECTIVE_COLUMNS = {
    1: (1, 2, 2, 3, 6, 4, 9),
    2: (0, 1, 1, 2, 4, 3, 6),
    3: (0, 0, 1, 0, 1, 0, 2),
    4: (1, 2, 2, 4, 8, 6, 12),
    5: (0, 1, 1, 2, 5, 4, 8),
    6: (0, 0, 1, 0, 1, 1, 2),
    7: (1, 2, 2, 4, 8, 6, 13),
}


def chain_walk_tables(word):
    """Oracle: VM by walking the chain k, k-, ... above s with one sym_form
    call per link; VV by summing VM over the chain of s up to s."""
    r = word.r
    vm = [[0] * r for _ in range(r)]
    for s in range(1, r + 1):
        vm[s - 1][s - 1] = 1
        for k in range(s + 1, r + 1):
            total = 1 if word.letter(k) == word.letter(s) else 0
            cur = k
            while cur > s:
                total += sym_form(word.cartan, word.beta(cur), word.beta(s))
                cur = word.k_minus(cur)
            vm[k - 1][s - 1] = total
    vv = [
        [
            sum(vm[k][t - 1] for t in word.chain(word.letter(s)) if t <= s)
            for s in range(1, r + 1)
        ]
        for k in range(r)
    ]
    return vm, vv


def test_hom_tables_against_chain_walk_oracle():
    rng = random.Random(17)
    pool = [
        CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)]),
        CartanMatrix.from_edges(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)]),
        CartanMatrix.from_edges(3, [(1, 2, 3), (1, 3, 2), (2, 3, 2)]),
    ]
    words = [random_reduced_word(rng, c, rng.randint(1, 14)) for c in pool * 4]
    e8_word = ReducedWord(E8, tuple(range(8, 0, -1)) * 15)
    words += [ReducedWord(E8, e8_word.printed[e8_word.r - k:]) for k in (1, 9, 23, 40, 77)]
    for word in words:
        tables = hom_tables(word)
        vm, vv = chain_walk_tables(word)
        assert [list(row) for row in tables.VM] == vm
        assert [list(row) for row in tables.VV] == vv
        assert tables.d_delta == tuple(sum(col) for col in zip(*vm))


def test_hom_tables_unitriangular(word_mut7):
    t = hom_tables(word_mut7)
    r = word_mut7.r
    for k in range(1, r + 1):
        for s in range(1, r + 1):
            if k < s:
                assert t.VM[k - 1][s - 1] == 0
            if k == s:
                assert t.VM[k - 1][s - 1] == 1


def test_hom_tables_goldens(word_mut7):
    t = hom_tables(word_mut7)
    for s, col in DELTA_COLUMNS.items():
        assert tuple(zip(*t.VM))[s - 1] == col
    for k, col in PROJECTIVE_COLUMNS.items():
        assert tuple(zip(*t.VV))[k - 1] == col
    assert t.d_delta == (27, 17, 4, 8, 4, 1, 1)


def test_vv_is_chain_sum_of_vm(word_gamma7):
    t = hom_tables(word_gamma7)
    r = word_gamma7.r
    for s in range(1, r + 1):
        chain = [
            u for u in word_gamma7.chain(word_gamma7.letter(s)) if u <= s
        ]
        for k in range(1, r + 1):
            assert t.VV[k - 1][s - 1] == sum(t.VM[k - 1][u - 1] for u in chain)


def test_delta_columns_linearly_independent(word_mut7):
    from fractions import Fraction

    t = hom_tables(word_mut7)
    r = word_mut7.r
    m = [[Fraction(t.VM[k][s]) for s in range(r)] for k in range(r)]
    # unitriangular, so determinant 1; verify by elimination
    det = Fraction(1)
    for col in range(r):
        pivot = next(i for i in range(col, r) if m[i][col])
        m[col], m[pivot] = m[pivot], m[col]
        det *= m[col][col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for i in range(col + 1, r):
            factor = m[i][col]
            m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    assert det != 0


def test_ringel_form_cases(word_mut7):
    assert ringel_form_delta(word_mut7, 2, 5) == 0
    assert ringel_form_delta(word_mut7, 3, 3) == 1
    for k in range(1, 8):
        for s in range(1, k):
            assert ringel_form_delta(word_mut7, k, s) == sym_form(
                word_mut7.cartan, word_mut7.beta(k), word_mut7.beta(s)
            )


def test_ringel_form_expansion_identity(word_mut7):
    rng = random.Random(11)
    r = word_mut7.r
    cartan = word_mut7.cartan
    for _ in range(5):
        a = [rng.randint(0, 2) for _ in range(r)]
        lhs = sum(
            a[k - 1] * a[s - 1] * ringel_form_delta(word_mut7, k, s)
            for k in range(1, r + 1)
            for s in range(1, r + 1)
        )
        d = [0] * cartan.n
        for k in range(1, r + 1):
            for i, x in enumerate(word_mut7.beta(k)):
                d[i] += a[k - 1] * x
        assert 2 * lhs == sym_form(cartan, tuple(d), tuple(d))


def test_mutate_dimvec_printed(word_mut7):
    tables = hom_tables(word_mut7)
    matrix = b_matrix(gamma_i(word_mut7))
    labels = initial_dimvec_labels(tables)
    move = mutate_dimvec(matrix, labels, 4)
    assert move.picked_in_side  # the 70 > 69 selection
    assert move.new_label == (0, 2, 2, 4, 8, 6, 13)


def test_mutate_delta_dimvec_printed(word_mut7):
    tables = hom_tables(word_mut7)
    matrix = b_matrix(gamma_i(word_mut7))
    labels = initial_delta_labels(word_mut7)
    move = mutate_delta_dimvec(matrix, labels, 4, tables.d_delta)
    assert move.new_label == (0, 2, 0, 0, 0, 0, 1)


def test_initial_delta_labels_are_intervals(word_mut7):
    labels = initial_delta_labels(word_mut7)
    assert labels[3] == (1, 0, 0, 1, 0, 0, 0)  # positions 4 and 1
    assert labels[6] == (1, 0, 0, 1, 0, 0, 1)


def test_mutation_involution(word_mut7):
    tables = hom_tables(word_mut7)
    matrix = b_matrix(gamma_i(word_mut7))
    labels = initial_dimvec_labels(tables)
    once = mutate_dimvec(matrix, labels, 4)
    mutated = matrix.mutate(4)
    back = mutate_dimvec(mutated, once.labels, 4)
    assert back.labels == labels
    assert mutated.mutate(4) == matrix


def test_two_path_consistency_random_walks():
    """Filtration labels map to dimension labels through the VM columns."""
    rng = random.Random(23)
    pool = [
        CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)]),
        CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)]),
        CartanMatrix.from_edges(3, [(1, 2, 3), (1, 3, 2), (2, 3, 2)]),
        CartanMatrix.from_edges(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)]),
    ]
    for _ in range(6):
        word = random_reduced_word(rng, rng.choice(pool), rng.randint(3, 7))
        if not word.r:
            continue
        tables = hom_tables(word)
        matrix = b_matrix(gamma_i(word))
        dims = initial_dimvec_labels(tables)
        deltas = initial_delta_labels(word)
        if not matrix.mutable:
            continue
        last = None
        for _ in range(5):
            choices = [k for k in matrix.mutable if k != last]
            k = rng.choice(choices)
            md = mutate_dimvec(matrix, dims, k)
            ma = mutate_delta_dimvec(matrix, deltas, k, tables.d_delta)
            assert md.dominated
            assert tables.dimvec_of_delta(ma.new_label) == md.new_label
            matrix, dims, deltas = matrix.mutate(k), md.labels, ma.labels
            last = k


def test_negative_entry_aborts(word_mut7):
    tables = hom_tables(word_mut7)
    matrix = b_matrix(gamma_i(word_mut7))
    labels = list(initial_dimvec_labels(tables))
    labels[0] = (100,) * 7  # corrupt the data so the exchange goes negative
    with pytest.raises(NegativeEntryError):
        mutate_dimvec(matrix, tuple(labels), 1)


def test_non_dominating_exchange_raises():
    """The larger side (total 5) does not dominate the other (total 1).
    Filtration-multiplicity labels need not dominate, so that rule accepts it."""
    matrix = ExchangeMatrix(3, (1,), [[0], [-1], [1]])
    labels = ((0, 0, 0), (5, 0, 0), (0, 1, 0))
    with pytest.raises(MismatchError, match=r"vertex 1: total 5 does not dominate total 1"):
        mutate_dimvec(matrix, labels, 1)
    move = mutate_delta_dimvec(matrix, labels, 1, (1, 1, 1))
    assert move.new_label == (5, 0, 0) and not move.dominated


def test_d_delta_closed_form_is_the_vm_column_sum():
    """d_delta comes from a suffix sum of roots, not from VM; the two must
    agree on the full E8 word and on random tame and wild words."""
    rng = random.Random(29)
    wild = CartanMatrix.from_edges(3, [(1, 2, 3), (1, 3, 2), (2, 3, 2)])
    words = [ReducedWord(E8, tuple(range(8, 0, -1)) * 15)]
    words += [
        random_reduced_word(rng, rng.choice((*CARTAN_POOL, wild)), rng.randint(0, 16))
        for _ in range(60)
    ]
    for word in words:
        tables = hom_tables(word)
        assert tables.d_delta == tuple(map(sum, zip(*tables.VM)))


def test_only_dimvec_builds_the_vm_and_vv_tables(monkeypatch):
    """``mu-i``, ``identities`` and ``delta-dimvec`` read only ``d_delta``;
    the r x r VM and VV tables are built on the ``dimvec`` path alone."""
    built = []
    for name in ("VM", "VV"):
        table = getattr(HomTables, name).func

        def counting(self, name=name, table=table):
            built.append(name)
            return table(self)

        monkeypatch.setattr(HomTables, name, property(counting))
    doc = {"rank": 3, "edges": [[1, 2, 2], [2, 3, 1]], "word": [1, 3, 2, 1, 3, 2, 1]}
    walk = json.dumps(dict(doc, path=[1, 2, 1]))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["mu-i", "--inline", json.dumps(doc), "--depth", "0"],
            ["mu-i", "--inline", json.dumps(doc)],
            ["identities", "--inline", json.dumps(doc)],
            ["delta-dimvec", "--inline", walk],
        ):
            assert main(argv) == 0
        assert built == []
        assert main(["dimvec", "--inline", walk]) == 0
    assert {"VM", "VV"} <= set(built)
