import itertools
import json
import random

import pytest

from weylseed import minors, words
from weylseed.acceptance import random_reduced_word
from weylseed.cartan import CartanMatrix, ReducedWord
from weylseed.cli import main
from weylseed.errors import ValidationError
from weylseed.laurent import LaurentPoly, VarTable
from weylseed.minors import cross_validate, minor, minor_spec_for_Vk, x_product


def a4_word():
    c = CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    return ReducedWord(c, (3, 4, 2, 1, 3, 4, 2, 1))


def type_a(n):
    return CartanMatrix.from_edges(n, [(i, i + 1, 1) for i in range(1, n)])


def longest(n):
    """The longest word of A_n as (1, 2, 1, 3, 2, 1, ..., n, ..., 1)."""
    return tuple(j for i in range(1, n + 1) for j in range(i, 0, -1))


A6_LONGEST = longest(6)


# -- oracle: the product as a matrix, and two determinant routines ---------


def matrix_product(rank, letters, var_names):
    """Product of elementary unitriangular factors, leftmost factor first.

    Factor q is the identity plus the q-th variable in position
    (letters[q], letters[q] + 1); the matrix size is rank + 1.
    """
    m = rank + 1
    table = VarTable(var_names)
    one, zero = LaurentPoly.one(table), LaurentPoly(table, {})
    result = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for letter, name in zip(letters, var_names):
        t = LaurentPoly.var(table, name)
        # right-multiply by (I + t E_{letter, letter+1}): col letter+1 += t * col letter
        a, b = letter - 1, letter
        for i in range(m):
            entry = result[i][a]
            if entry:
                result[i][b] = result[i][b] + entry * t
    return result


def submatrix(mat, rows, cols):
    return [[mat[i - 1][j - 1] for j in cols] for i in rows]


def det_cofactor(rows):
    """Laplace expansion along the first row, skipping zero entries."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    acc = LaurentPoly(rows[0][0].vars, {})
    for j in range(size):
        entry = rows[0][j]
        if not entry:
            continue
        cofactor = det_cofactor(
            [[row[c] for c in range(size) if c != j] for row in rows[1:]]
        )
        term = entry * cofactor
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def det_bareiss(rows):
    """Fraction-free elimination; every division is exact by construction."""
    size = len(rows)
    table = rows[0][0].vars
    a = [row[:] for row in rows]
    prev = LaurentPoly.one(table)
    sign = 1
    for k in range(size - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, size) if a[i][k]), None)
            if pivot is None:
                return LaurentPoly(table, {})
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).exact_div(prev)
            a[i][k] = LaurentPoly(table, {})
        prev = a[k][k]
    det = a[size - 1][size - 1]
    return det if sign == 1 else -det


def t_table(r):
    return VarTable([f"t{q}" for q in range(r, 0, -1)])


def mono(table, coef, *pairs):
    exp = [0] * len(table)
    for name, e in pairs:
        exp[table.index(name)] = e
    return LaurentPoly(table, {tuple(exp): coef})


# -- the propagation against hand-written values -------------------------


def test_x_product_single_factor():
    table = VarTable(("t1",))
    one, t1 = LaurentPoly.one(table), LaurentPoly.var(table, "t1")
    row1 = {(1,): one}
    x_product(row1, 1, t1)
    assert row1 == {(1,): one, (2,): t1}
    # row 2 has no entry in column 1 to add to column 2
    row2 = {(2,): one}
    x_product(row2, 1, t1)
    assert row2 == {(2,): one}
    # a column set holding both 1 and 2 keeps its minor
    both = {(1, 2): one}
    x_product(both, 1, t1)
    assert both == {(1, 2): one}
    # a second factor x_1(t1) adds to the minor the first one made
    x_product(row1, 1, t1)
    assert row1 == {(1,): one, (2,): t1 + t1}


def test_x_product_entries_match_printed():
    w = a4_word()
    table = t_table(8)
    assert minor(w.printed, table.names, (2,))[(5,)] == mono(
        table, 1, ("t6", 1), ("t4", 1), ("t3", 1)
    )
    expected_35 = (
        mono(table, 1, ("t8", 1), ("t7", 1))
        + mono(table, 1, ("t8", 1), ("t3", 1))
        + mono(table, 1, ("t4", 1), ("t3", 1))
    )
    assert minor(w.printed, table.names, (3,))[(5,)] == expected_35


def test_minor_identity_matrix():
    assert minor((), (), (1, 3)) == {(1, 3): LaurentPoly.one(VarTable(()))}


def test_minor_printed_values():
    w = a4_word()
    table = t_table(8)
    assert minor(w.printed, table.names, (1,))[(2,)] == mono(table, 1, ("t5", 1)) + mono(
        table, 1, ("t1", 1)
    )
    expected = (
        mono(table, 1, ("t6", 1), ("t5", 1))
        + mono(table, 1, ("t6", 1), ("t1", 1))
        + mono(table, 1, ("t2", 1), ("t1", 1))
    )
    assert minor(w.printed, table.names, (1, 2))[(2, 3)] == expected


def test_minor_spec_table():
    w = a4_word()
    expected = {
        1: ((1,), (2,)),
        2: ((1, 2), (2, 3)),
        3: ((1, 2, 3, 4), (1, 2, 3, 5)),
        4: ((1, 2, 3), (2, 3, 5)),
        5: ((1,), (3,)),
        6: ((1, 2), (3, 5)),
        7: ((1, 2, 3, 4), (2, 3, 4, 5)),
        8: ((1, 2, 3), (3, 4, 5)),
    }
    for k, spec in expected.items():
        assert minor_spec_for_Vk(w, k) == spec


def test_minor_spec_requires_type_a(double_edge):
    w = ReducedWord(double_edge, (1, 2, 1))
    with pytest.raises(ValidationError, match="minor specifications require the standard path labels"):
        minor_spec_for_Vk(w, 1)


def test_cross_validate_a4_all():
    w = a4_word()
    assert len(cross_validate(w)) == 8


def test_cross_validate_random_type_a():
    rng = random.Random(17)
    pool = [type_a(2), type_a(3), type_a(4)]
    for _ in range(8):
        w = random_reduced_word(rng, rng.choice(pool), rng.randint(1, 6))
        assert len(cross_validate(w)) == w.r


def test_unitriangular_degree_bound():
    # the rows of the product are its 1 x 1 minors
    w = a4_word()
    table = t_table(8)
    for i in range(1, 6):
        row = minor(w.printed, table.names, (i,))
        assert row[(i,)] == LaurentPoly.one(table)
        assert all(j >= i for (j,) in row)
        for (j,), entry in row.items():
            if j > i:
                assert all(sum(exp) <= 8 for exp in entry.terms)


# -- the propagation against the oracle -----------------------------------


def assert_matches_oracle(word):
    """Every minor of every row set equals the cofactor and Bareiss minors
    of the matrix product, zero included; returns how many were compared."""
    n = word.cartan.n
    names = t_table(word.r).names
    mat = matrix_product(n, word.printed, names)
    zero = LaurentPoly(VarTable(names), {})
    checked = 0
    for size in range(1, n + 2):
        col_sets = list(itertools.combinations(range(1, n + 2), size))
        for rows in col_sets:
            got = minor(word.printed, names, rows)
            assert all(got.values())
            assert set(got) <= set(col_sets)
            for cols in col_sets:
                sub = submatrix(mat, rows, cols)
                expected = det_cofactor(sub)
                assert got.get(cols, zero) == expected == det_bareiss(sub), (rows, cols)
                checked += 1
    return checked


def test_minor_matches_oracle_on_random_type_a_words():
    rng = random.Random(29)
    checked = 0
    for _ in range(12):
        n = rng.randint(2, 5)
        w = random_reduced_word(rng, type_a(n), rng.randint(1, n * (n + 1) // 2))
        checked += assert_matches_oracle(w)
    assert checked > 1000


def test_minor_matches_oracle_on_the_a6_longest_word():
    w = ReducedWord(type_a(6), A6_LONGEST)
    # sum over i of binomial(7, i) ** 2 is binomial(14, 7) - 1
    assert assert_matches_oracle(w) == 3431


def test_bareiss_agrees_with_cofactor():
    rng = random.Random(5)
    table = VarTable(("t1", "t2"))
    for _ in range(6):
        size = 4
        rows = [
            [
                LaurentPoly(
                    table,
                    {
                        (rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-2, 2)
                    },
                )
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        assert det_bareiss(rows) == det_cofactor(rows)


# -- minor-check through the command line ---------------------------------


def a_doc(n, word):
    return {"rank": n, "edges": [[i, i + 1, 1] for i in range(1, n)], "word": list(word)}


def test_minor_check_a7_longest_word(capsys):
    assert main(["minor-check", "--inline", json.dumps(a_doc(7, longest(7)))]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 28 and all(c["ok"] for c in checks)
    assert [c["k"] for c in checks] == list(range(1, 29))


def test_minor_check_mismatch_names_sizes_not_values(monkeypatch, capsys):
    real = minors.phi_eval

    def perturbed(sum_, pattern, names):
        value = real(sum_, pattern, names)
        return value + LaurentPoly.one(value.vars)

    monkeypatch.setattr(minors, "phi_eval", perturbed)
    assert main(["minor-check", "--inline", json.dumps(a_doc(6, A6_LONGEST))]) == 3
    err = capsys.readouterr().err
    assert json.loads(err) == {
        "error": "MismatchError",
        "detail": "position 1: minor with rows [1] and columns [2] (6 terms) "
        "differs from its evaluation (7 terms)",
    }


def test_minor_check_names_the_position_of_a_lowering_failure(monkeypatch, capsys):
    """A lowering over the word limit names its position in ``minor-check``
    as in ``phi-eval``, which evaluates the same sums on the same pattern."""
    monkeypatch.setattr(words, "MAX_WORDS", 3)
    doc = json.dumps(a_doc(3, (1, 2, 1, 3, 2, 1)))
    diagnostics = []
    for command in ("phi-eval", "minor-check"):
        assert main([command, "--inline", doc]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        diagnostics.append(json.loads(captured.err))
    assert diagnostics == 2 * [
        {
            "error": "TermLimitError",
            "detail": "position 5: lowering by letter 2, round 1 of 1: 4 words, over the limit of 3",
        }
    ]
