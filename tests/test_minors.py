import random

import pytest

from weylseed.acceptance import random_reduced_word
from weylseed.cartan import CartanMatrix, ReducedWord
from weylseed.errors import ValidationError
from weylseed.laurent import LaurentPoly, VarTable
from weylseed.minors import (
    _det_cofactor,
    cross_validate,
    minor,
    minor_spec_for_Vk,
    x_product,
)


def a4_word():
    c = CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    return ReducedWord(c, (3, 4, 2, 1, 3, 4, 2, 1))


A6_LONGEST = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 1)


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
                return LaurentPoly.zero(table)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).exact_div(prev)
            a[i][k] = LaurentPoly.zero(table)
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


def test_x_product_single_factor():
    table = VarTable(("t1",))
    m = x_product(2, (1,), ("t1",))
    assert m[0][1] == LaurentPoly.var(table, "t1")
    assert m[0][0] == LaurentPoly.one(table) and m[1][2].terms.get((0,), 0) == 0


def test_x_product_entries_match_printed():
    w = a4_word()
    table = t_table(8)
    m = x_product(4, w.printed, table.names)
    assert m[1][4] == mono(table, 1, ("t6", 1), ("t4", 1), ("t3", 1))
    expected_25 = (
        mono(table, 1, ("t8", 1), ("t7", 1))
        + mono(table, 1, ("t8", 1), ("t3", 1))
        + mono(table, 1, ("t4", 1), ("t3", 1))
    )
    assert m[2][4] == expected_25


def test_minor_identity_matrix():
    ident = x_product(3, (), ())
    det = minor(ident, (1, 3), (1, 3))
    assert det == LaurentPoly.one(det.vars)


def test_minor_printed_values():
    w = a4_word()
    table = t_table(8)
    m = x_product(4, w.printed, table.names)
    d12 = minor(m, (1,), (2,))
    assert d12 == mono(table, 1, ("t5", 1)) + mono(table, 1, ("t1", 1))
    d = minor(m, (1, 2), (2, 3))
    expected = (
        mono(table, 1, ("t6", 1), ("t5", 1))
        + mono(table, 1, ("t6", 1), ("t1", 1))
        + mono(table, 1, ("t2", 1), ("t1", 1))
    )
    assert d == expected


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
    pool = [
        CartanMatrix.from_edges(2, [(1, 2, 1)]),
        CartanMatrix.from_edges(3, [(1, 2, 1), (2, 3, 1)]),
        CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)]),
    ]
    for _ in range(8):
        w = random_reduced_word(rng, rng.choice(pool), rng.randint(1, 6))
        assert len(cross_validate(w)) == w.r


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
        assert det_bareiss(rows) == _det_cofactor(rows)
    # the A6 minors of sizes 5 and 6 on the longest word
    a6 = ReducedWord(
        CartanMatrix.from_edges(6, [(i, i + 1, 1) for i in range(1, 6)]), A6_LONGEST
    )
    table = t_table(a6.r)
    mat = x_product(6, a6.printed, table.names)
    sizes = set()
    for k in range(1, a6.r + 1):
        rows, cols = minor_spec_for_Vk(a6, k)
        if len(rows) >= 5:
            sub = [[mat[i - 1][j - 1] for j in cols] for i in rows]
            assert det_bareiss(sub) == _det_cofactor(sub) == minor(mat, rows, cols)
            sizes.add(len(rows))
    assert sizes == {5, 6}


def test_unitriangular_degree_bound():
    w = a4_word()
    table = t_table(8)
    m = x_product(4, w.printed, table.names)
    for i in range(5):
        for j in range(5):
            if i > j:
                assert not m[i][j]
            elif i == j:
                assert m[i][j] == LaurentPoly.one(m[i][j].vars)
            else:
                for exp in m[i][j].terms:
                    assert sum(exp) <= 8
