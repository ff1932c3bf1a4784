import itertools
import json
import random
import re
from dataclasses import replace
from functools import cached_property

import pytest

from weylseed import intervals
from weylseed.acceptance import CARTAN_POOL, TAME_POOL, random_reduced_word
from weylseed.cartan import CartanMatrix, ReducedWord, dim_V
from weylseed.errors import NegativeEntryError, StepMismatchError, ValidationError
from weylseed.homdata import (
    hom_tables,
    initial_delta_labels,
    mutate_delta_dimvec,
)
from weylseed.intervals import (
    IntervalLabel,
    PBWExpander,
    PlanStep,
    expected_final_label,
    identity_sides,
    identity_step,
    mu_i_plan,
    run_mu_i,
    verify_identity,
)
from weylseed.laurent import LaurentPoly
from weylseed.quiver import ExchangeMatrix, Seed, WorkingMatrix, b_matrix, gamma_i

E8_EDGES = [(5, 6, 1), (6, 8, 1), (7, 8, 1), (8, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)]
WILD3_EDGES = [(1, 2, 3), (1, 3, 2), (2, 3, 2)]


def star(word: ReducedWord, k: int) -> int:
    """Oracle: the chain-reversal involution; occurrence m of letter j goes to
    occurrence t_j - 2 - m, and the final occurrence has no image."""
    j = word.letter(k)
    m, t = word.occ_index(k), word.t(j)
    if m == t - 1:
        raise ValueError(f"position {k} is the final occurrence of {j}")
    return word.chain(j)[t - 2 - m]


def first_from(word: ReducedWord, p: int, j: int) -> int:
    """Oracle: the first position >= p carrying letter j, or r + 1."""
    return next((t for t in range(p, word.r + 1) if word.letter(t) == j), word.r + 1)


def identity_sides_by_scan(word: ReducedWord, k: int, s: int):
    """Oracle: the identity labels with the factors found by walking every
    position t of s+1..s+-1 and then of k_min(s)+1..s-1, keeping those with
    t+ >= s+ and q_{i_s, i_t} != 0; every chain position comes from a scan
    of the word's letters."""
    j = word.letter(s)
    a_bottom = first_from(word, k, j)
    a_next = first_from(word, a_bottom + 1, j)
    sp = first_from(word, s + 1, j)
    lhs = (IntervalLabel(s, a_bottom), IntervalLabel(sp, a_next))
    rhs_pair = (IntervalLabel(sp, a_bottom), IntervalLabel(s, a_next))
    factors = []
    for t in itertools.chain(range(s + 1, sp), range(first_from(word, 1, j) + 1, s)):
        jt = word.letter(t)
        if first_from(word, t + 1, jt) >= sp:
            q = word.cartan.q(j, jt)
            if q:
                factors.append((IntervalLabel(t, first_from(word, k, jt)), q))
    return lhs, rhs_pair, tuple(factors)


def plan_length(word: ReducedWord) -> int:
    """Oracle: the plan makes t_j (t_j - 1) / 2 steps on the chain of each letter j."""
    total = 0
    for j in range(1, word.cartan.n + 1):
        t = word.t(j)
        total += t * (t - 1) // 2
    return total


def test_plan_groups_wild(word_wild10):
    plan = mu_i_plan(word_wild10)
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
    assert plan.length == 13 == plan_length(word_wild10)


def test_plan_groups_a4_shift(word_a4_shift):
    plan = mu_i_plan(word_a4_shift)
    assert [list(g) for g in plan.groups] == [
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
    assert plan.length == 10


def test_plan_empty_for_distinct_letters(a4):
    w = ReducedWord(a4, (4, 3, 2, 1))
    assert mu_i_plan(w).length == 0


def test_plan_length_e8_coxeter_power():
    edges = [(5, 6, 1), (6, 8, 1), (7, 8, 1), (8, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)]
    e8 = CartanMatrix.from_edges(8, edges)
    word = ReducedWord(e8, tuple(range(8, 0, -1)) * 15)
    assert plan_length(word) == 840
    assert mu_i_plan(word).length == 840


def test_plan_length_formula_random():
    rng = random.Random(99)
    pool = [
        CartanMatrix.from_edges(2, [(1, 2, 1)]),
        CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)]),
    ]
    for _ in range(8):
        w = random_reduced_word(rng, rng.choice(pool), rng.randint(1, 7))
        total = sum(
            w.t(j) * (w.t(j) - 1) // 2 for j in range(1, w.cartan.n + 1)
        )
        assert mu_i_plan(w).length == total


def test_run_mu_i_small(word_pbw6, word_a4_shift):
    for w in (word_pbw6, word_a4_shift):
        report = run_mu_i(w)
        assert report.steps_checked == mu_i_plan(w).length
        assert report.final_labels_expected(w)
        assert report.final_chains_reversed(w)


def test_run_mu_i_empty_plan(a4):
    w = ReducedWord(a4, (4, 3, 2, 1))
    report = run_mu_i(w)
    assert report.steps_checked == 0
    assert report.final_labels == tuple(
        IntervalLabel(k, k) for k in range(1, 5)
    )


def test_final_label_layout(word_a4_shift):
    report = run_mu_i(word_a4_shift, max_seed_steps=0)
    as_pairs = {(lab.b, lab.a) for lab in report.final_labels}
    expected = {
        (word_a4_shift.chain(word_a4_shift.letter(k))[-1], k)
        for k in range(1, word_a4_shift.r + 1)
    }
    assert as_pairs == expected
    for v, lab in enumerate(report.final_labels, start=1):
        assert lab == expected_final_label(word_a4_shift, v)


def test_identity_sides_wild(word_wild10):
    lhs, rhs_pair, factors = identity_sides(word_wild10, 2, 6)
    assert (lhs[0].b, lhs[0].a) == (6, 2)
    assert (lhs[1].b, lhs[1].a) == (8, 6)
    assert (rhs_pair[0].b, rhs_pair[0].a) == (8, 2)
    assert (rhs_pair[1].b, rhs_pair[1].a) == (6, 6)
    assert sorted(((f.b, f.a), q) for f, q in factors) == [
        ((4, 4), 2),
        ((7, 3), 3),
    ]
    # degenerate second factor for a first-occurrence mutation
    lhs2, rhs2, factors2 = identity_sides(word_wild10, 2, 2)
    assert rhs2[1].is_unit
    assert sorted(((f.b, f.a), q) for f, q in factors2) == [
        ((4, 4), 2),
        ((5, 3), 3),
    ]


def test_identity_sides_against_two_range_scan(word_wild10):
    """Every plan step of the E8 word, the wild ten-letter word and random
    tame and wild words: lhs, rhs pair and the factors in their order."""
    rng = random.Random(2026)
    words = [
        ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15),
        word_wild10,
    ]
    for trial in range(40):
        cartan = CARTAN_POOL[3] if trial % 3 == 2 else rng.choice(TAME_POOL)
        words.append(random_reduced_word(rng, cartan, rng.randint(2, 12)))
    factors_seen = 0
    for w in words:
        for step in mu_i_plan(w).steps:
            expected = identity_sides_by_scan(w, step.group, step.before.b)
            assert identity_sides(w, step.group, step.before.b) == expected
            factors_seen += len(expected[2])
    assert factors_seen > 1000


def test_identity_and_plan_labels_are_interval_labels(word_wild10):
    """``identity_sides`` and ``mu_i_plan`` return ``IntervalLabel`` and
    ``PlanStep`` instances, equal to and printed like those their
    constructors build."""
    assert repr(identity_sides(word_wild10, 2, 6)) == (
        "((M[6,2], M[8,6]), (M[8,2], M[6,6]), ((M[7,3], 3), (M[4,4], 2)))"
    )
    assert repr(identity_sides(word_wild10, 2, 2)) == (
        "((M[2,2], M[6,6]), (M[6,2], 1), ((M[4,4], 2), (M[5,3], 3)))"
    )
    plan = mu_i_plan(word_wild10)
    assert repr(plan.steps[1]) == (
        "PlanStep(index=2, group=1, vertex=3, before=M[3,1], after=M[5,3])"
    )
    labels = []
    for step in plan.steps:
        assert type(step) is PlanStep and step == PlanStep(*step)
        lhs, rhs_pair, factors = identity_sides(word_wild10, step.group, step.before.b)
        labels += [step.before, step.after, *lhs, *rhs_pair, *(lab for lab, _ in factors)]
    assert all(type(lab) is IntervalLabel for lab in labels)
    assert [repr(lab) for lab in labels] == [repr(IntervalLabel(lab.b, lab.a)) for lab in labels]
    assert {lab.is_unit for lab in labels} == {False, True}


def test_link_table_built_once_per_word(monkeypatch, word_pbw6):
    """The step checks of a ``mu-i`` run read links at every step and
    ``gamma_i`` at every position, yet each word sweeps its link table once:
    the E8 combinatorial pass plus ``gamma_i``, and a fully tracked pass
    plus ``verify_identity`` and ``PBWExpander`` on every step."""
    builds = []
    sweep = ReducedWord._links.func

    def counted(self):
        builds.append(self)
        return sweep(self)

    table = cached_property(counted)
    table.__set_name__(ReducedWord, "_links")
    monkeypatch.setattr(ReducedWord, "_links", table)
    e8 = ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15)
    assert run_mu_i(e8, max_seed_steps=0).steps_checked == 840
    gamma_i(e8)
    word = ReducedWord(word_pbw6.cartan, word_pbw6.printed)  # the fixture is shared
    report = run_mu_i(word)
    expander = PBWExpander(word)
    for step in report.plan.steps:
        assert verify_identity(word, step.group, step.before.b, report.label_values)["ok"]
        expander.expand(step.after)
    assert builds == [e8, word]


def test_check_reads_each_plan_step_identity(monkeypatch):
    """The exchange check of every plan step asks the identity rule
    ``identity_positions`` for that step's (k, s), and the labels it makes,
    ``identity_sides(word, k, s)``, are those the scan oracle finds: on E8,
    the wild chain-pass words and random tame words."""
    wild = CartanMatrix.from_edges(3, WILD3_EDGES)
    words = [
        ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15),
        ReducedWord(wild, (1, 2, 3, 1, 3, 1, 2, 3, 1, 3)),
        ReducedWord(wild, (2, 3, 1, 3, 2, 3, 2, 1, 3)),
        ReducedWord(wild, (3, 2, 3, 2, 1, 3, 2, 1, 3)),
    ]
    rng = random.Random(22)
    words += [
        random_reduced_word(rng, rng.choice(TAME_POOL), rng.randint(2, 12)) for _ in range(30)
    ]
    positions = intervals.identity_positions
    for word in words:
        seen = []

        def recorded(w, k, s):
            seen.append((k, s))
            return positions(w, k, s)

        monkeypatch.setattr(intervals, "identity_positions", recorded)
        run_mu_i(word, max_seed_steps=0)
        monkeypatch.undo()
        assert seen == [(step.group, step.before.b) for step in mu_i_plan(word).steps]
        for k, s in seen:
            assert identity_sides(word, k, s) == identity_sides_by_scan(word, k, s)


def test_verify_identities_a4(word_a4_shift):
    report = run_mu_i(word_a4_shift)
    for step in report.plan.steps:
        out = verify_identity(
            word_a4_shift, step.group, step.before.b, report.label_values
        )
        assert out["ok"]


def test_identity_step_lookup(word_wild10):
    assert identity_step(word_wild10, 2, 6) == 5
    assert identity_step(word_wild10, 5, 5) == 10
    with pytest.raises(ValidationError):
        identity_step(word_wild10, 2, 10)  # final occurrence, never exchanged


def test_identity_step_matches_plan(word_wild10, word_a4_shift, word_gamma7):
    for word in (word_wild10, word_a4_shift, word_gamma7):
        found = {}
        for step in mu_i_plan(word).steps:
            found[(step.group, step.before.b)] = step.index
        for k in range(1, word.r + 1):
            for s in word.chain(word.letter(k)):
                if (k, s) in found:
                    assert identity_step(word, k, s) == found[(k, s)]
                else:
                    with pytest.raises(ValidationError):
                        identity_step(word, k, s)
        other = next(t for t in range(2, word.r + 1) if word.letter(t) != word.letter(1))
        with pytest.raises(ValidationError):
            identity_step(word, 1, other)  # different letters


def test_e8_combinatorial_pass():
    """The whole 840-step chain reversal on E8 (8,...,1)^15, no Laurent part."""
    word = ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15)
    report = run_mu_i(word, max_seed_steps=0)
    assert report.steps_checked == 840
    assert report.final_labels_expected(word)
    assert report.final_chains_reversed(word)


def test_each_pass_step_reads_its_neighbourhood_once(monkeypatch, wild3):
    """``run_mu_i`` reads ``neighbors(v)`` of its working matrix, which sorts
    column v, once per tracked plan step, for its Laurent exchange, and on
    no other step; ``mutate`` never reads it, and the pass makes no
    ``ExchangeMatrix.mutate`` snapshot.  On the E8 combinatorial pass and on
    a wild pass cut at step 4 and uncut."""
    reads, inside = [], [0]
    neighbors, mutate = WorkingMatrix.neighbors, WorkingMatrix.mutate

    def counting_neighbors(self, k):
        reads.append(inside[0])
        return neighbors(self, k)

    def counting_mutate(self, k):
        inside[0] += 1
        try:
            return mutate(self, k)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(WorkingMatrix, "neighbors", counting_neighbors)
    monkeypatch.setattr(WorkingMatrix, "mutate", counting_mutate)
    snapshots = []
    monkeypatch.setattr(ExchangeMatrix, "mutate", lambda self, k: snapshots.append(k))
    e8 = ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15)
    wild = ReducedWord(wild3, (2, 3, 1, 3, 2, 3, 2, 1, 3))
    for word, cut in ((e8, 0), (wild, 4), (wild, None)):
        reads.clear()
        report = run_mu_i(word, max_seed_steps=cut)
        assert len(reads) == (report.plan.length if cut is None else cut)
        assert not any(reads)  # none from inside mutate
    assert snapshots == []


def test_cut_off_keeps_one_matrix_path(wild3, a4):
    """Every cut-off gives the same final matrix and labels, and a run cut at
    m holds the values of the full run for the labels made by steps <= m.
    The wild word [1,2,3,1,3,1,2,3,1,3] goes over ``MAX_TERM_PAIRS`` at step
    11, so its fullest run is cut at step 10."""
    cases = (
        (ReducedWord(wild3, (1, 2, 3, 1, 3, 1, 2, 3, 1, 3)), (0, 9, 10)),
        (ReducedWord(wild3, (2, 3, 1, 3, 2, 3, 2, 1, 3)), (0, 4, None)),
        (ReducedWord(a4, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)), (0, 9, None)),
    )
    for word, cuts in cases:
        reports = [run_mu_i(word, max_seed_steps=m) for m in cuts]
        full = reports[-1]
        initial = [IntervalLabel(k, word.k_min(k)) for k in range(1, word.r + 1)]
        for m, report in zip(cuts, reports):
            assert report.final_matrix == full.final_matrix
            assert report.final_labels == full.final_labels
            made = initial + [step.after for step in full.plan.steps[:m]]
            assert report.label_values == {lab: full.label_values[lab] for lab in made}
        assert len(reports[0].label_values) == word.r


def interval_indicator(word: ReducedWord, b: int, a: int) -> tuple[int, ...]:
    """Indicator of the chain positions b, b-, b--, ... that are >= a (a >= 1)."""
    vec = [0] * word.r
    cur = b
    while cur >= a:
        vec[cur - 1] = 1
        cur = word.k_minus(cur)
    return tuple(vec)


def dense_stop(word: ReducedWord, d_delta) -> int | None:
    """Oracle: the step at which the dense filtration-multiplicity exchange
    stops the pass, or None.  Each vertex carries a length-r vector, starting
    from the indicators of the initial intervals; every exchange along the
    plan must leave the indicator of the step's new label."""
    matrix = b_matrix(gamma_i(word))
    deltas, totals = initial_delta_labels(replace(hom_tables(word), d_delta=tuple(d_delta)))
    for step in mu_i_plan(word).steps:
        try:
            move = mutate_delta_dimvec(matrix, deltas, totals, step.vertex)
        except NegativeEntryError:
            return step.index
        deltas, totals = move.labels, move.totals
        if deltas[step.vertex - 1] != interval_indicator(word, *step.after):
            return step.index
        matrix = matrix.mutate(step.vertex)
    return None


def label_stop(monkeypatch, word: ReducedWord, d_delta) -> int | None:
    """The step at which ``run_mu_i`` stops when it reads ``d_delta``, or None."""
    tables = hom_tables(word)
    monkeypatch.setattr(intervals, "hom_tables", lambda w: replace(tables, d_delta=tuple(d_delta)))
    try:
        run_mu_i(word, max_seed_steps=0)
    except StepMismatchError as exc:
        return int(re.match(r"step (\d+): ", str(exc)).group(1))
    return None


def test_label_check_stops_where_the_dense_rule_does(monkeypatch):
    """The weighted label check agrees with the dense Delta exchange on
    where a pass stops, with the true d_delta (neither stops) and with one
    entry of it perturbed: on E8, D4, affine A1, the wild chain-pass words and
    random words over the acceptance pool."""
    wild = CartanMatrix.from_edges(3, WILD3_EDGES)
    words = [
        ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15),
        ReducedWord(CARTAN_POOL[4], (1, 2, 3, 4) * 3),
        ReducedWord(CartanMatrix.from_edges(2, [(1, 2, 2)]), (1, 2, 1, 2, 1)),
        ReducedWord(wild, (1, 2, 3, 1, 3, 1, 2, 3, 1, 3)),
        ReducedWord(wild, (2, 3, 1, 3, 2, 3, 2, 1, 3)),
        ReducedWord(wild, (3, 2, 3, 2, 1, 3, 2, 1, 3)),
    ]
    rng = random.Random(21)
    words += [
        random_reduced_word(rng, rng.choice(CARTAN_POOL), rng.randint(3, 10)) for _ in range(40)
    ]
    caught = 0
    for word in words:
        d_delta = hom_tables(word).d_delta
        assert dense_stop(word, d_delta) is None
        assert label_stop(monkeypatch, word, d_delta) is None
        for _ in range(3):
            perturbed = list(d_delta)
            shift = rng.choice((-1, 1)) * rng.randint(1, 2 * max(d_delta))
            perturbed[rng.randrange(word.r)] += shift
            stop = dense_stop(word, perturbed)
            assert label_stop(monkeypatch, word, perturbed) == stop, (word.printed, perturbed)
            caught += stop is not None
    assert 40 < caught < 3 * len(words)


def test_neighborhood_mismatch_names_both_bags(monkeypatch, word_a4_shift):
    """A wrong identity pattern stops the pass with the label bag of each side
    and the expected pair and factor bags: the identity rule that the check
    reads, ``identity_positions``, doubles every exponent."""
    positions = intervals.identity_positions

    def doubled(word, k, s):
        sp, kp, factors = positions(word, k, s)
        return sp, kp, tuple((t, a, 2 * q) for t, a, q in factors)

    monkeypatch.setattr(intervals, "identity_positions", doubled)
    with pytest.raises(StepMismatchError) as info:
        run_mu_i(word_a4_shift, max_seed_steps=0)
    assert re.fullmatch(
        r"step \d+: exchange neighborhoods do not match the identity pattern at vertex \d+: "
        r"in-side \{.*\}, out-side \{.*\}; expected pair \{M\[.*\}, factors \{M\[.*: 2.*\}",
        str(info.value),
    )


def bag_check(word, labels, sides, step, weight, weight_minus) -> str | None:
    """Oracle: the label-bag check of one step, or the message it raises.

    Each side of ``sides`` (``neighbors(v)``) becomes a bag of vertex labels
    with multiplicities and a d_delta-weighted total; the bags must be the
    pair and factor bags of ``identity_sides``, and the heavier side (the
    in-side only when strictly heavier) must be the pair's."""
    rhs_pair, factors = intervals.identity_sides(word, step.group, step.before.b)[1:]
    pair = {lab: 1 for lab in rhs_pair if lab.a <= lab.b}
    product = {lab: q for lab, q in factors if lab.a <= lab.b}
    weighed = []
    for side in sides:
        bag, total = {}, 0
        for u, mult in side:
            lab = labels[u - 1]
            bag[lab] = bag.get(lab, 0) + mult
            total += mult * (weight[lab.b] - weight_minus[lab.a])
        weighed.append((bag, total))
    (bag_in, w_in), (bag_out, w_out) = weighed
    if [bag_in, bag_out] not in ([pair, product], [product, pair]):
        return (
            f"step {step.index}: exchange neighborhoods do not match the identity pattern "
            f"at vertex {step.vertex}: in-side {bag_in}, out-side {bag_out}; "
            f"expected pair {pair}, factors {product}"
        )
    if (bag_in if w_in > w_out else bag_out) != pair:
        return (
            f"step {step.index}: d_delta weights pick the factor side at vertex {step.vertex}: "
            f"in-side {w_in}, out-side {w_out}"
        )
    return None


def oracle_words() -> list[ReducedWord]:
    """E8 (8..1)x15, D4 [4,1,2,3]x3, affine A1 [1,2,1,2,1], the three wild
    chain-pass words, a twelve-letter wild word and 40 random pool words."""
    wild = CartanMatrix.from_edges(3, WILD3_EDGES)
    words = [
        ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15),
        ReducedWord(CARTAN_POOL[4], (4, 1, 2, 3) * 3),
        ReducedWord(CartanMatrix.from_edges(2, [(1, 2, 2)]), (1, 2, 1, 2, 1)),
        ReducedWord(wild, (1, 2, 3, 1, 3, 1, 2, 3, 1, 3)),
        ReducedWord(wild, (2, 3, 1, 3, 2, 3, 2, 1, 3)),
        ReducedWord(wild, (3, 2, 3, 2, 1, 3, 2, 1, 3)),
        ReducedWord(wild, (2, 3, 1, 3, 2, 3, 2, 1, 3, 1, 2, 3)),
    ]
    rng = random.Random(35)
    return words + [
        random_reduced_word(rng, rng.choice(CARTAN_POOL), rng.randint(3, 12)) for _ in range(40)
    ]


def off_pass(matrix: WorkingMatrix, v: int, mutant: str, pick: int) -> None:
    """Mutants of the working matrix at vertex v: one arrow v -> u added, u
    the least vertex other than v with no entry in column v ("arrow"), or,
    with u the neighbour of v at place ``pick`` (mod the degree) in vertex
    order, the arrows between v and u reversed ("reversed") or doubled
    ("doubled arrow")."""
    column = matrix.cols[v]
    if mutant == "arrow":
        u, b = next(u for u in range(1, matrix.r + 1) if u != v and u not in column), 1
    else:
        neighbours = sorted(column)
        u = neighbours[pick % len(neighbours)]
        b = -column[u] if mutant == "reversed" else 2 * column[u]
    column[u] = b
    if u in matrix.cols:
        matrix.cols[u][v] = -b


def test_step_check_agrees_with_the_bag_oracle(monkeypatch):
    """At every plan step the O(deg) column check passes or fails as the
    label-bag oracle does, with the same message: on the unchanged pass and
    under five mutants.  Each factor exponent is doubled in the identity
    rule, or one d_delta entry is perturbed: the matrix still follows the
    pass, so the pass is carried on past a failing step and every step is
    compared.  One arrow is added to the working matrix after step 3, or the
    arrows between the vertex of a random step and one of its neighbours
    are reversed or doubled just before that step: the matrix leaves the
    pass, whose entries then grow without bound, so it stops at its first
    failure.  A plain ``run_mu_i`` raises the first failure."""
    check = intervals._check_exchange
    positions = intervals.identity_positions
    rng = random.Random(36)

    def doubled(word, k, s):
        sp, kp, factors = positions(word, k, s)
        return sp, kp, tuple((t, a, 2 * q) for t, a, q in factors)

    off = ("arrow", "reversed", "doubled arrow")
    failed = dict.fromkeys(("none", "doubled", "d_delta") + off, 0)
    for word in oracle_words():
        plan = mu_i_plan(word)
        tables = hom_tables(word)
        perturbed = list(tables.d_delta)
        perturbed[rng.randrange(word.r)] += rng.choice((-1, 1)) * rng.randint(1, 2 * max(perturbed))
        for mutant in failed:
            at = 4 if mutant == "arrow" else rng.randint(1, max(plan.length, 1))
            pick = rng.randrange(12)
            verdicts = []

            def compared(word_, matrix, labels, where, step, weight, weight_minus):
                if mutant in off and step.index == at:
                    off_pass(matrix, step.vertex, mutant, pick)
                sides = matrix.neighbors(step.vertex)
                expected = bag_check(word_, labels, sides, step, weight, weight_minus)
                try:
                    check(word_, matrix, labels, where, step, weight, weight_minus)
                except StepMismatchError as exc:
                    verdicts.append(str(exc))
                    assert verdicts[-1] == expected, (word.printed, mutant)
                    if mutant in off:
                        raise
                else:
                    verdicts.append(None)
                    assert expected is None, (word.printed, mutant)

            with monkeypatch.context() as patch:
                if mutant == "doubled":
                    patch.setattr(intervals, "identity_positions", doubled)
                if mutant == "d_delta":
                    patch.setattr(
                        intervals, "hom_tables", lambda w: replace(tables, d_delta=tuple(perturbed))
                    )
                patch.setattr(intervals, "_check_exchange", compared)
                try:
                    run_mu_i(word, max_seed_steps=0)
                except StepMismatchError as exc:
                    assert mutant in off and str(exc) == verdicts[-1]
                else:
                    assert len(verdicts) == plan.length
                first = next((text for text in verdicts if text), None)
                failed[mutant] += first is not None
                if mutant in off:
                    mutate, calls = WorkingMatrix.mutate, []

                    def mutant_before_step(matrix, k):
                        mutate(matrix, k)
                        calls.append(k)
                        if len(calls) == at - 1 < plan.length:
                            off_pass(matrix, plan.steps[at - 1].vertex, mutant, pick)

                    patch.setattr(WorkingMatrix, "mutate", mutant_before_step)
                    if at == 1:
                        continue  # no mutation precedes step 1; compared above
                patch.setattr(intervals, "_check_exchange", check)
                if first is None:
                    run_mu_i(word, max_seed_steps=0)
                else:
                    with pytest.raises(StepMismatchError) as info:
                        run_mu_i(word, max_seed_steps=0)
                    assert str(info.value) == first
    long_plans = sum(mu_i_plan(word).length >= 4 for word in oracle_words())
    assert failed["none"] == 0
    assert failed["arrow"] == long_plans > 20
    assert failed["reversed"] > 40 and failed["doubled arrow"] > 40
    assert failed["doubled"] > 40 and failed["d_delta"] > 20, failed


def test_vertex_labels_stay_distinct_and_mapped(monkeypatch):
    """At every step of every oracle plan the vertex labels are pairwise
    distinct, as the summands of a basic cluster-tilting object are, and the
    label -> vertex map that the check reads agrees with them."""
    check = intervals._check_exchange
    steps = []

    def observed(word, matrix, labels, where, step, weight, weight_minus):
        assert len(set(labels)) == len(labels)
        assert where == {lab: v for v, lab in enumerate(labels, start=1)}
        steps.append(step)
        check(word, matrix, labels, where, step, weight, weight_minus)

    monkeypatch.setattr(intervals, "_check_exchange", observed)
    for word in oracle_words():
        report = run_mu_i(word, max_seed_steps=0)
        assert len(set(report.final_labels)) == word.r
    assert len(steps) > 1000


def test_star_golden(word_a4_shift):
    assert star(word_a4_shift, 5) == 5
    assert star(word_a4_shift, 6) == 2
    with pytest.raises(ValueError, match="final occurrence"):
        star(word_a4_shift, 10)


def test_star_involution(word_a4_shift, word_wild10):
    for w in (word_a4_shift, word_wild10):
        for k in range(1, w.r + 1):
            if w.k_plus(k) == w.r + 1:
                continue
            assert star(w, star(w, k)) == k


def test_shift_walk_dimensions(word_a4_shift):
    """The starred path from the reversed seed computes the shifted modules.

    Checked through the root-lattice grading: mutating at (5, 6) from the
    initial seed and at the starred path (5, 2) from the fully reversed seed
    produces variables with the documented dimension vectors.
    """
    w = word_a4_shift
    grading = {f"y{k}": dim_V(w, k) for k in range(1, 11)}
    seed_v = Seed.from_word(w)
    r5 = seed_v.mutate(5)
    r6 = r5.mutate(6)
    assert r5.cluster[4].multidegree(grading) == (1, 1, 1, 0)
    assert r6.cluster[5].multidegree(grading) == (1, 1, 2, 1)
    *_, t_seed = Seed.from_word(w).walk(step.vertex for step in mu_i_plan(w).steps)
    starred = tuple(star(w, k) for k in (5, 6))
    assert starred == (5, 2)
    s1 = t_seed.mutate(starred[0])
    s2 = s1.mutate(starred[1])
    assert s1.cluster[starred[0] - 1].multidegree(grading) == (0, 1, 1, 1)
    assert s2.cluster[starred[1] - 1].multidegree(grading) == (0, 1, 0, 0)


def test_run_mu_i_more_word_families():
    """Full chain passes with in-ring identity checks on further shapes."""
    de = CartanMatrix.from_edges(3, [(1, 2, 2), (2, 3, 1)])
    affine = CartanMatrix.from_edges(2, [(1, 2, 2)])
    words = [
        ReducedWord(de, (3, 1, 2, 3, 1, 2, 1)),
        ReducedWord(affine, (1, 2, 1, 2, 1)),
        ReducedWord(affine, (2, 1, 2, 1, 2, 1)),
    ]
    for w in words:
        report = run_mu_i(w)
        assert report.final_labels_expected(w)
        assert report.final_chains_reversed(w)
        for step in report.plan.steps:
            out = verify_identity(w, step.group, step.before.b, report.label_values)
            assert out["ok"]


def test_pbw_goldens(word_pbw6):
    exp = PBWExpander(word_pbw6)
    t = exp.table

    def mono(coef, *pairs):
        e = [0] * 6
        for k, p in pairs:
            e[k - 1] = p
        return LaurentPoly(t, {tuple(e): coef})

    assert exp.expand(IntervalLabel(3, 3)) == mono(1, (3, 1))
    unit = exp.expand(IntervalLabel(0, 1))
    assert unit == LaurentPoly.one(unit.vars)
    assert exp.expand_initial(4) == mono(1, (1, 1), (4, 1)) - mono(1, (3, 1))
    assert exp.expand_initial(5) == mono(1, (2, 1), (5, 1)) - mono(1, (3, 1))
    assert exp.expand_initial(6) == mono(1, (3, 1), (6, 1)) - mono(
        1, (4, 1), (5, 1)
    )


def test_pbw_identity_solves_for_the_expanded_label():
    """``PBWExpander.expand`` solves the identity at (k=a, s=k_minus(b)) for
    its first rhs label, which is [k_plus(k_minus(b)), a] = [b, a]: every
    non-unit label of random tame and wild words."""
    rng = random.Random(20)
    words = [
        random_reduced_word(rng, rng.choice(CARTAN_POOL), rng.randint(2, 12))
        for _ in range(40)
    ]
    labels = 0
    for w in words:
        for b in range(1, w.r + 1):
            for a in w.chain(w.letter(b)):
                if a < b:
                    _, rhs_pair, _ = identity_sides(w, a, w.k_minus(b))
                    assert rhs_pair[0] == IntervalLabel(b, a)
                    labels += 1
    assert labels > 100


def test_pbw_expand_never_divides_by_one(monkeypatch, word_pbw6, word_a4_shift):
    """An identity whose divisor label is the unit gives lhs - rhs2 as it is,
    with no division; every expansion still solves its identity exactly."""
    divisors = []
    exact_div = LaurentPoly.exact_div

    def counting_exact_div(self, other):
        divisors.append(other)
        return exact_div(self, other)

    monkeypatch.setattr(LaurentPoly, "exact_div", counting_exact_div)
    unit_divisor_labels = 0
    for w in (word_pbw6, word_a4_shift):
        exp = PBWExpander(w)

        def product(pairs):
            return LaurentPoly.product(exp.table, (exp.expand(lab) ** q for lab, q in pairs))

        for b in range(1, w.r + 1):
            for a in w.chain(w.letter(b)):
                if a < b:
                    lhs_pair, rhs_pair, factors = identity_sides(w, a, w.k_minus(b))
                    unit_divisor_labels += rhs_pair[1].is_unit
                    assert product((lab, 1) for lab in lhs_pair) - product(factors) == (
                        exp.expand(IntervalLabel(b, a)) * exp.expand(rhs_pair[1])
                    )
    assert unit_divisor_labels > 0
    assert [d for d in divisors if d == LaurentPoly.one(d.vars)] == []


def test_pbw_w_modules(word_pbw6):
    exp = PBWExpander(word_pbw6)
    t = exp.table
    seed = Seed.from_word(word_pbw6)
    s3 = seed.mutate(3)
    w3 = exp.expand_laurent(s3.cluster[2])

    def mono(coef, *pairs):
        e = [0] * 6
        for k, p in pairs:
            e[k - 1] = p
        return LaurentPoly(t, {tuple(e): coef})

    assert w3 == (
        mono(1, (1, 1), (2, 1), (6, 1))
        - mono(1, (1, 1), (4, 1))
        - mono(1, (2, 1), (5, 1))
        + mono(1, (3, 1))
    )
    w2 = exp.expand_laurent(s3.mutate(2).cluster[1])
    assert w2 == mono(1, (1, 1), (6, 1)) - mono(1, (5, 1))
    w1 = exp.expand_laurent(s3.mutate(1).cluster[0])
    assert w1 == mono(1, (2, 1), (6, 1)) - mono(1, (4, 1))
    # exchange relation in the dual basis variables
    lhs = exp.expand_initial(3) * w3
    rhs = exp.expand_initial(4) * exp.expand_initial(5) + (
        exp.expand_initial(1) * exp.expand_initial(2) * exp.expand_initial(6)
    )
    assert lhs == rhs


def test_pbw_grading_matches_dim(word_pbw6, word_a4_shift):
    for w in (word_pbw6, word_a4_shift):
        exp = PBWExpander(w)
        grading = {f"m{k}": w.beta(k) for k in range(1, w.r + 1)}
        for k in range(1, w.r + 1):
            poly = exp.expand_initial(k)
            assert poly.multidegree(grading) == dim_V(w, k)


def plan_dict(plan) -> dict:
    """Oracle: the plan as a JSON document built from its fields."""
    return {
        "word": list(plan.word_printed),
        "length": plan.length,
        "groups": [list(g) for g in plan.groups],
        "steps": [
            {
                "step": step.index,
                "group": step.group,
                "vertex": step.vertex,
                "before": [step.before.b, step.before.a],
                "after": [step.after.b, step.after.a],
            }
            for step in plan.steps
        ],
    }


def test_plan_text_is_the_canonical_dump_of_the_plan_document():
    """``json_text`` writes the canonical dump of ``plan_dict``: on the E8
    word, the three chain-pass words, a word with an empty plan and random
    words over every pool matrix."""
    rng = random.Random(32)
    words = [
        ReducedWord(CartanMatrix.from_edges(8, E8_EDGES), tuple(range(8, 0, -1)) * 15),
        *(
            ReducedWord(CartanMatrix.from_edges(3, WILD3_EDGES), printed)
            for printed in (
                (1, 2, 3, 1, 3, 1, 2, 3, 1, 3),
                (2, 3, 1, 3, 2, 3, 2, 1, 3),
                (3, 2, 3, 2, 1, 3, 2, 1, 3),
            )
        ),
        ReducedWord(CARTAN_POOL[0], (1, 2)),
    ]
    words += [random_reduced_word(rng, c, rng.randint(0, 12)) for c in CARTAN_POOL * 3]
    assert mu_i_plan(words[4]).length == 0
    for word in words:
        plan = mu_i_plan(word)
        assert plan.json_text() == json.dumps(
            plan_dict(plan), sort_keys=True, separators=(",", ":")
        ), word.printed


def test_plan_serialization(word_pbw6):
    doc = json.loads(mu_i_plan(word_pbw6).json_text())
    assert doc["length"] == len(doc["steps"]) == 3
    assert doc["steps"][0] == {
        "step": 1,
        "group": 1,
        "vertex": 1,
        "before": [1, 1],
        "after": [4, 4],
    }
