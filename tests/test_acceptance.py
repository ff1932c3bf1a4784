"""Acceptance gate: every deliverable-level check at its stated (exact)
tolerance, one printed pass line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""
import json
import random

import pytest

from weylseed.acceptance import (
    check_a2_pentagon,
    check_matrix_involution,
    check_phi_multiplicative,
    check_seed_walks,
    check_shuffle_axioms,
    random_reduced_word,
)
from weylseed.cartan import (
    CartanMatrix,
    QuiverOrientation,
    ReducedWord,
    dim_V,
)
from weylseed.cli import main
from weylseed.homdata import (
    hom_tables,
    initial_delta_labels,
    initial_dimvec_labels,
    mutate_delta_dimvec,
    mutate_dimvec,
)
from weylseed.intervals import (
    IntervalLabel,
    PBWExpander,
    mu_i_plan,
    run_mu_i,
    verify_identity,
)
from weylseed.laurent import LaurentPoly, VarTable
from weylseed.minors import cross_validate, minor, minor_spec_for_Vk
from weylseed.quiver import (
    Seed,
    b_matrix,
    coefficient_free_matrix,
    gamma_i,
    y_dagger,
)
from weylseed.words import g_V


def ok(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


@pytest.fixture(scope="module")
def wild_word():
    cartan = CartanMatrix.from_edges(3, [(1, 2, 3), (1, 3, 2), (2, 3, 2)])
    return ReducedWord(cartan, (2, 3, 2, 1, 2, 1, 3, 1, 2, 1))


@pytest.fixture(scope="module")
def wild_report(wild_word):
    # symbolic tracking through step 11 covers every printed identity;
    # the later steps only blow the supports up
    return run_mu_i(wild_word, max_seed_steps=11)


def test_uncut_wild_pass_stops_at_the_term_pair_limit(wild_word, capsys):
    """Plan step 12 squares a 9,581-term variable, 45.9M term pairs: the
    uncut pass exits 3 before forming one, naming the step, vertex and sizes."""
    doc = {"rank": 3, "edges": [[1, 2, 3], [1, 3, 2], [2, 3, 2]], "word": list(wild_word.printed)}
    assert main(["mu-i", "--inline", json.dumps(doc)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "TermLimitError",
        "detail": "step 12, vertex 6: product of 9581 by 9581 terms forms 45902571 "
        "term pairs, over the limit of 10000000",
    }


def test_criterion_1_gamma_goldens():
    de = CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)])
    q1 = gamma_i(ReducedWord(de, (3, 1, 2, 3, 1, 2, 1)))
    assert q1.r == 7 and q1.frozen == frozenset({5, 6, 7})
    assert sorted(q1.arrows) == [
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
    q2 = gamma_i(ReducedWord(de, (1, 3, 2, 1, 3, 2, 1)))
    assert q2.r == 7 and q2.frozen == frozenset({5, 6, 7})
    assert sorted(q2.arrows) == [
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
    ok("1 word-quiver goldens")


def test_criterion_2_root_weight_data(wild_word):
    star = CartanMatrix.from_edges(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)])
    w_star = ReducedWord(star, (3, 4, 2, 1, 4))
    assert set(w_star.betas) == {
        (0, 0, 0, 1),
        (1, 0, 0, 1),
        (0, 1, 0, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 2),
    }
    triangle = CartanMatrix.from_edges(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    assert dim_V(ReducedWord(triangle, (3, 2, 1, 3, 2, 1)), 5) == (4, 3, 2)
    assert list(wild_word.betas[:8]) == [
        (1, 0, 0),
        (3, 1, 0),
        (8, 3, 0),
        (24, 8, 1),
        (40, 13, 2),
        (189, 63, 8),
        (527, 176, 22),
        (1392, 465, 58),
    ]
    ok("2 root and weight data")


def letter_terms(g) -> dict:
    """The terms of a word sum keyed by letter tuples."""
    return {tuple(map(ord, w)): c for w, c in g.terms.items()}


def test_criterion_3_generating_functions():
    de = CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)])
    w = ReducedWord(de, (3, 1, 2, 3, 1, 2, 1))
    assert letter_terms(g_V(w, 1)) == {(1,): 1}
    assert letter_terms(g_V(w, 2)) == {(2, 1, 1): 2}
    assert letter_terms(g_V(w, 3)) == {(1, 2, 1, 2, 1, 1): 4, (1, 2, 2, 1, 1, 1): 12}
    assert letter_terms(g_V(w, 4)) == {(3, 2, 1, 1): 2}
    assert letter_terms(g_V(w, 7)) == {
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
    assert g_V(w, 5).word_count() == 402
    ok("3 Euler generating functions")


def test_criterion_4_minor_cross_validation():
    a4 = CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    w = ReducedWord(a4, (3, 4, 2, 1, 3, 4, 2, 1))
    table = VarTable([f"t{q}" for q in range(8, 0, -1)])

    def poly(*monos):
        acc = LaurentPoly(table, {})
        for mono in monos:
            exp = [0] * 8
            for q in mono:
                exp[table.index(f"t{q}")] += 1
            acc = acc + LaurentPoly(table, {tuple(exp): 1})
        return acc

    printed = {
        1: poly((5,), (1,)),
        2: poly((6, 5), (6, 1), (2, 1)),
        3: poly((7,), (3,)),
        4: poly(
            (8, 7, 6, 5),
            (8, 7, 6, 1),
            (8, 7, 2, 1),
            (8, 6, 3, 5),
            (8, 6, 3, 1),
            (8, 3, 2, 1),
            (4, 3, 2, 1),
        ),
        5: poly((5, 2)),
        6: poly((6, 5, 4, 3, 2)),
        7: poly((7, 4, 2, 1)),
        8: poly((8, 7, 6, 5, 4, 2)),
    }
    checks = cross_validate(w)
    assert len(checks) == 8
    for k, (rows, cols, common) in enumerate(checks, start=1):
        assert common == printed[k]
        assert (rows, cols) == minor_spec_for_Vk(w, k)
        assert minor(w.printed, table.names, rows)[cols] == printed[k]
    ok("4 type-A minor cross-validation")


def test_criterion_5_dimension_vector_mutation():
    de = CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)])
    w = ReducedWord(de, (1, 3, 2, 1, 3, 2, 1))
    tables = hom_tables(w)
    matrix = b_matrix(gamma_i(w))
    new_label, _, picked_in = mutate_dimvec(matrix, *initial_dimvec_labels(tables), 4)
    assert picked_in  # 70 > 69
    assert new_label == (0, 2, 2, 4, 8, 6, 13)
    assert mutate_delta_dimvec(matrix, *initial_delta_labels(tables), 4)[0] == (0, 2, 0, 0, 0, 0, 1)
    ok("5 dimension-vector mutation")


def test_criterion_6_chain_pass(wild_word, wild_report):
    plan = mu_i_plan(wild_word)
    assert [list(g) for g in plan.groups] == [
        [1, 3, 5],
        [2, 6, 8],
        [1, 3],
        [4],
        [1],
        [2, 6],
        [],
        [2],
        [],
        [],
    ]
    a4 = CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    w_shift = ReducedWord(a4, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1))
    assert [list(g) for g in mu_i_plan(w_shift).groups] == [
        [1, 5, 8],
        [2, 6],
        [3],
        [],
        [1, 5],
        [2],
        [],
        [1],
        [],
        [],
    ]
    e8 = CartanMatrix.from_edges(
        8,
        [(5, 6, 1), (6, 8, 1), (7, 8, 1), (8, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)],
    )
    assert mu_i_plan(ReducedWord(e8, tuple(range(8, 0, -1)) * 15)).length == 840
    # full runs on the two length-10 words: every step is checked against
    # the exchange-identity pattern inside run_mu_i
    report_shift = run_mu_i(w_shift)
    assert report_shift.final_labels_ok and report_shift.chains_reversed
    assert wild_report.final_labels_ok and wild_report.chains_reversed
    pbw_word = ReducedWord(
        CartanMatrix.from_edges(3, [(1, 2, 1), (2, 3, 1)]), (2, 3, 1, 2, 3, 1)
    )
    report_pbw = run_mu_i(pbw_word)
    assert report_pbw.final_labels_ok
    ok("6 chain-reversal pass")


def test_criterion_7_determinantal_identities(wild_word, wild_report):
    values = wild_report.label_values
    for k, s in [(2, 6), (2, 2), (6, 6), (3, 5), (3, 3), (5, 5)]:
        assert verify_identity(wild_word, k, s, values)["ok"]
    grading = {f"y{k}": dim_V(wild_word, k) for k in range(1, 11)}
    lhs = values[IntervalLabel(5, 3)] * values[IntervalLabel(7, 5)]
    rhs1 = values[IntervalLabel(7, 3)] * values[IntervalLabel(5, 5)]
    rhs2 = values[IntervalLabel(6, 6)] ** 3 * values[IntervalLabel(4, 4)] ** 2
    assert (
        lhs.multidegree(grading)
        == rhs1.multidegree(grading)
        == rhs2.multidegree(grading)
        == (615, 205, 26)
    )
    ok("7 determinantal identities")


def test_criterion_8_pbw_expansions():
    a3 = CartanMatrix.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    w = ReducedWord(a3, (2, 3, 1, 2, 3, 1))
    exp = PBWExpander(w)
    t = exp.table

    def mono(coef, *pairs):
        e = [0] * 6
        for k, p in pairs:
            e[k - 1] = p
        return LaurentPoly(t, {tuple(e): coef})

    assert exp.expand_initial(4) == mono(1, (1, 1), (4, 1)) - mono(1, (3, 1))
    assert exp.expand_initial(5) == mono(1, (2, 1), (5, 1)) - mono(1, (3, 1))
    assert exp.expand_initial(6) == mono(1, (3, 1), (6, 1)) - mono(1, (4, 1), (5, 1))
    seed = Seed.from_word(w)
    s3 = seed.mutate(3)
    w3 = exp.expand_laurent(s3.cluster[2])
    assert w3 == (
        mono(1, (1, 1), (2, 1), (6, 1))
        - mono(1, (1, 1), (4, 1))
        - mono(1, (2, 1), (5, 1))
        + mono(1, (3, 1))
    )
    assert exp.expand_laurent(s3.mutate(2).cluster[1]) == mono(
        1, (1, 1), (6, 1)
    ) - mono(1, (5, 1))
    assert exp.expand_laurent(s3.mutate(1).cluster[0]) == mono(
        1, (2, 1), (6, 1)
    ) - mono(1, (4, 1))
    lhs = exp.expand_initial(3) * w3
    rhs = exp.expand_initial(4) * exp.expand_initial(5) + (
        exp.expand_initial(1) * exp.expand_initial(2) * exp.expand_initial(6)
    )
    assert lhs == rhs
    ok("8 dual basis expansions")


def test_criterion_9_acyclic_case():
    rng = random.Random(20240801)
    produced = 0
    while produced < 3:
        n = rng.randint(2, 5)
        arrows = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.6:
                    arrows.append((i, j, rng.randint(1, 2)))
        if not arrows:
            continue
        orientation = QuiverOrientation.from_arrows(n, arrows)
        matrix = coefficient_free_matrix(orientation)
        initial = Seed.initial(matrix)
        dagger = y_dagger(initial)
        assert dagger.matrix == matrix
        assert not set(initial.cluster) & set(dagger.cluster)
        produced += 1
    ok("9 acyclic double cluster")


def test_criterion_10_property_suites():
    seed = 20240801
    assert check_matrix_involution(seed, trials=1000)
    assert check_seed_walks(seed, words=6, depth=8)
    assert check_shuffle_axioms(seed)
    assert check_phi_multiplicative(seed, trials=6)
    assert check_a2_pentagon()
    # interval-indicator invariant along randomized chain passes
    rng = random.Random(seed)
    pool = [
        CartanMatrix.from_edges(3, [(1, 2, 1), (2, 3, 1)]),
        CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)]),
    ]
    for _ in range(4):
        w = random_reduced_word(rng, rng.choice(pool), rng.randint(2, 7))
        if not w.r:
            continue
        report = run_mu_i(w)  # raises StepMismatchError on any violation
        assert report.final_labels_ok
    ok("10 property suites")
