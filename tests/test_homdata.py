import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import replace
from operator import ge, mul, sub

import pytest

from weylseed.acceptance import CARTAN_POOL, random_reduced_word
from weylseed.cartan import CartanMatrix, ReducedWord, dim_V, sym_form
from weylseed.errors import EngineError, MismatchError, NegativeEntryError
from weylseed.cli import _dump, main
from weylseed.homdata import (
    HomTables,
    hom_tables,
    initial_delta_labels,
    initial_dimvec_labels,
    mutate_delta_dimvec,
    mutate_dimvec,
    ringel_form_delta,
)
from weylseed.intervals import mu_i_plan
from weylseed.quiver import ExchangeMatrix, b_matrix, gamma_i

E8 = CartanMatrix.from_edges(
    8, [(5, 6, 1), (6, 8, 1), (7, 8, 1), (8, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)]
)
WILD3 = CartanMatrix.from_edges(3, [(1, 2, 3), (1, 3, 2), (2, 3, 2)])
E8_WORD = ReducedWord(E8, tuple(range(8, 0, -1)) * 15)
WILD_WORD = ReducedWord(WILD3, (1, 2, 3, 1, 3, 1, 2, 3, 1, 3))

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


def chain_walk_oracle_words() -> list[ReducedWord]:
    """Random words over three matrices, suffixes of the E8 word, and last
    wild words of 20, 32 and 50 letters, whose entries need lanes of 4, 8
    and more than 8 bytes."""
    rng = random.Random(17)
    pool = [
        CartanMatrix.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)]),
        CartanMatrix.from_edges(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)]),
        CartanMatrix.from_edges(3, [(1, 2, 3), (1, 3, 2), (2, 3, 2)]),
    ]
    words = [random_reduced_word(rng, c, rng.randint(1, 14)) for c in pool * 4]
    words += [ReducedWord(E8, E8_WORD.printed[E8_WORD.r - k:]) for k in (1, 9, 23, 40, 77)]
    words += [random_reduced_word(rng, WILD3, length) for length in (20, 32, 50)]
    return words


def test_hom_tables_against_chain_walk_oracle():
    words = chain_walk_oracle_words()
    widths = set()
    for word in words:
        tables = hom_tables(word)
        vm, vv = chain_walk_tables(word)
        assert [list(row) for row in tables.VM] == vm
        assert [list(row) for row in tables.VV] == vv
        assert tables.d_delta == tuple(sum(col) for col in zip(*vm))
        widths.add(tables._rows[0])
    # every memoryview lane width and the byte-slice decode beyond 8 bytes
    assert {1, 2, 4, 8} < widths and max(widths) > 8, widths


def with_negative_vm_entry(tables):
    """``tables`` with C beta_2 lowered by 5 where beta_1 = alpha_1 lives,
    so that VM[2][1] = (beta_2, beta_1) - 5 = -5 on the word (1,3,2,1,3,2,1)."""
    c_betas = list(tables.c_betas)
    c_betas[1] = (c_betas[1][0] - 5,) + c_betas[1][1:]
    return replace(tables, c_betas=tuple(c_betas))


def test_guard_bits_stop_a_negative_entry_at_its_row(word_mut7, monkeypatch, capsys):
    """A row whose entry is negative sets a lane's top bit: reading the table
    raises MismatchError naming the row, and ``dimvec`` exits 3 with nothing
    on stdout instead of printing a wrong table."""
    bad = with_negative_vm_entry(hom_tables(word_mut7))
    with pytest.raises(MismatchError, match=r"^VM row 2: an entry is negative or above 127$"):
        bad.VM
    with pytest.raises(MismatchError, match=r"^VV row 2: "):
        bad.VV
    real = hom_tables
    monkeypatch.setattr("weylseed.cli.hom_tables", lambda word: with_negative_vm_entry(real(word)))
    doc = {"rank": 3, "edges": [[1, 2, 2], [2, 3, 1]], "word": [1, 3, 2, 1, 3, 2, 1]}
    assert main(["dimvec", "--inline", json.dumps(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the walk reads its labels, the VV columns, before the tables are printed
    assert json.loads(captured.err) == {
        "error": "MismatchError",
        "detail": "VV row 2: an entry is negative or above 127",
    }


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
    labels, totals = initial_dimvec_labels(tables)
    move = mutate_dimvec(matrix, labels, totals, 4)
    assert move.picked_in_side  # the 70 > 69 selection
    assert move.new_label == (0, 2, 2, 4, 8, 6, 13)


def test_mutate_delta_dimvec_printed(word_mut7):
    tables = hom_tables(word_mut7)
    matrix = b_matrix(gamma_i(word_mut7))
    labels, totals = initial_delta_labels(tables)
    move = mutate_delta_dimvec(matrix, labels, totals, 4)
    assert move.new_label == (0, 2, 0, 0, 0, 0, 1)


def test_initial_delta_labels_are_intervals(word_mut7):
    labels, totals = initial_delta_labels(hom_tables(word_mut7))
    assert labels[3] == (1, 0, 0, 1, 0, 0, 0)  # positions 4 and 1
    assert labels[6] == (1, 0, 0, 1, 0, 0, 1)
    assert totals[3] == 27 + 8 and totals[6] == 27 + 8 + 1  # d_delta over those positions


def test_mutation_involution(word_mut7):
    tables = hom_tables(word_mut7)
    matrix = b_matrix(gamma_i(word_mut7))
    labels, totals = initial_dimvec_labels(tables)
    once = mutate_dimvec(matrix, labels, totals, 4)
    mutated = matrix.mutate(4)
    back = mutate_dimvec(mutated, once.labels, once.totals, 4)
    assert back.labels == labels and back.totals == totals
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
        dims, dim_totals = initial_dimvec_labels(tables)
        deltas, delta_totals = initial_delta_labels(tables)
        if not matrix.mutable:
            continue
        last = None
        for _ in range(5):
            choices = [k for k in matrix.mutable if k != last]
            k = rng.choice(choices)
            # mutate_dimvec raises MismatchError unless the picked side dominates
            md = mutate_dimvec(matrix, dims, dim_totals, k)
            ma = mutate_delta_dimvec(matrix, deltas, delta_totals, k)
            assert tables.dimvec_of_delta(ma.new_label) == md.new_label
            matrix, dims, deltas = matrix.mutate(k), md.labels, ma.labels
            dim_totals, delta_totals = md.totals, ma.totals
            last = k


def test_negative_entry_aborts(word_mut7):
    tables = hom_tables(word_mut7)
    matrix = b_matrix(gamma_i(word_mut7))
    labels = list(initial_dimvec_labels(tables)[0])
    labels[0] = (100,) * 7  # corrupt the data so the exchange goes negative
    with pytest.raises(NegativeEntryError):
        mutate_dimvec(matrix, tuple(labels), tuple(map(sum, labels)), 1)


def test_non_dominating_exchange_raises():
    """The larger side (total 5) does not dominate the other (total 1).
    Filtration-multiplicity labels need not dominate, so that rule accepts it."""
    matrix = ExchangeMatrix(3, (1,), [[0], [-1], [1]])
    labels, totals = ((0, 0, 0), (5, 0, 0), (0, 1, 0)), (0, 5, 1)
    with pytest.raises(MismatchError, match=r"vertex 1: total 5 does not dominate total 1"):
        mutate_dimvec(matrix, labels, totals, 1)
    move = mutate_delta_dimvec(matrix, labels, totals, 1)  # d_delta = (1, 1, 1)
    assert move.new_label == (5, 0, 0) and move.picked_in_side and move.totals == (5, 5, 1)


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


def word_doc(word, path) -> dict:
    cartan = word.cartan
    edges = [
        [i, j, cartan.q(i, j)]
        for i in range(1, cartan.n + 1)
        for j in range(i + 1, cartan.n + 1)
        if cartan.q(i, j)
    ]
    return {"rank": cartan.n, "edges": edges, "word": list(word.printed), "path": path}


def gamma_document(word) -> dict:
    """Oracle: the ``gamma`` document as dicts, the matrix rows read entry by
    entry."""
    quiver = gamma_i(word)
    matrix = b_matrix(quiver)
    rows = [[matrix.entry(i, v) for v in matrix.mutable] for i in range(1, word.r + 1)]
    return {
        "quiver": quiver.to_json(),
        "b_matrix": {"vertices": word.r, "mutable": list(matrix.mutable), "rows": rows},
    }


def label_documents(word, path) -> tuple[dict, dict]:
    """Oracle: the ``dimvec`` and ``delta-dimvec`` documents as dicts, each
    label walk stepping through immutable matrices."""
    tables = hom_tables(word)
    docs = []
    for (labels, totals), exchange in (
        (initial_dimvec_labels(tables), mutate_dimvec),
        (initial_delta_labels(tables), mutate_delta_dimvec),
    ):
        matrix, sides = b_matrix(gamma_i(word)), []
        for k in path:
            move = exchange(matrix, labels, totals, k)
            matrix, labels, totals = matrix.mutate(k), move.labels, move.totals
            sides.append("in" if move.picked_in_side else "out")
        docs.append({"labels": [list(v) for v in labels], "sides": sides})
    dimvec, delta = docs
    dimvec["tables"] = {
        "word": list(word.printed),
        "VM": [list(row) for row in tables.VM],
        "VV": [list(row) for row in tables.VV],
        "d_delta": list(tables.d_delta),
    }
    delta["d_delta"] = list(tables.d_delta)
    return dimvec, delta


def test_table_commands_write_the_dump_of_their_documents(capsys):
    """``gamma``, ``dimvec`` and ``delta-dimvec`` write their own text; it is
    byte for byte the canonical dump of the oracle documents: on the E8 word
    with the 60-step plan path, the empty word, a word with every vertex
    frozen, random pool words with random paths (empty ones included), and
    the 50-letter wild word, whose lanes are wider than 8 bytes."""
    rng = random.Random(34)
    cases = [(E8_WORD, [step.vertex for step in mu_i_plan(E8_WORD).steps[:60]])]
    # no position, and no mutable vertex: empty tables and empty matrix rows
    cases += [(ReducedWord(CARTAN_POOL[1], printed), []) for printed in ((), (1, 2, 3))]
    for cartan in CARTAN_POOL * 3:
        word = random_reduced_word(rng, cartan, rng.randint(0, 12))
        mutable = b_matrix(gamma_i(word)).mutable
        depth = rng.randint(0, 6) if mutable else 0
        cases.append((word, [rng.choice(mutable) for _ in range(depth)]))
    wild = chain_walk_oracle_words()[-1]
    assert wild.r == 50 and hom_tables(wild)._rows[0] > 8
    assert max(map(max, hom_tables(wild).VV)) > 2**30
    cases.append((wild, [step.vertex for step in mu_i_plan(wild).steps[:8]]))
    assert sum(not path for _, path in cases) >= 2
    negative = False
    for word, path in cases:
        doc = json.dumps(word_doc(word, path))
        expected = dict(zip(("dimvec", "delta-dimvec"), label_documents(word, path)))
        expected["gamma"] = gamma_document(word)
        negative |= any(min(row, default=0) < 0 for row in expected["gamma"]["b_matrix"]["rows"])
        for command, document in expected.items():
            assert main([command, "--inline", doc]) == 0
            assert capsys.readouterr().out == _dump(document), (command, word.printed, path)
    assert negative


def reference_exchange(matrix, labels, k, weights, dominant):
    """Oracle: the exchange decided from both full arrow-weighted neighbor
    sums, each weighed by a dot product with ``weights``; the in-side only
    when strictly heavier.  Returns the new labels and whether the in-side
    was picked, or raises as the engine must."""
    sums = []
    for pairs in matrix.neighbors(k):
        total = (0,) * matrix.r
        for v, mult in pairs:
            total = tuple(x + mult * y for x, y in zip(total, labels[v - 1]))
        sums.append(total)
    in_sum, out_sum = sums
    picked_in = sum(map(mul, in_sum, weights)) > sum(map(mul, out_sum, weights))
    picked, other = (in_sum, out_sum) if picked_in else (out_sum, in_sum)
    new_label = tuple(map(sub, picked, labels[k - 1]))
    if min(new_label) < 0:
        raise NegativeEntryError(f"mutation at {k} left the reachable component: {new_label}")
    if dominant and not all(map(ge, picked, other)):
        low, high = sorted(map(sum, sums))
        raise MismatchError(
            f"dimension-vector exchange at vertex {k}: total {high} does not dominate total {low}"
        )
    new_labels = list(labels)
    new_labels[k - 1] = new_label
    return tuple(new_labels), picked_in


def weighed(labels, weights):
    return tuple(sum(map(mul, label, weights)) for label in labels)


def walk_against_reference(matrix, labels, totals, weights, path, dominant, tally):
    """Walk ``path`` with the engine exchange and with the oracle, stopping at
    the first error; every outcome must agree, and the carried totals must
    equal the labels weighed afresh."""
    exchange = mutate_dimvec if dominant else mutate_delta_dimvec
    assert totals == weighed(labels, weights)
    for k in path:
        in_total, out_total = (sum(q * totals[v - 1] for v, q in side) for side in matrix.neighbors(k))
        tally["tie"] += in_total == out_total
        try:
            expected = reference_exchange(matrix, labels, k, weights, dominant)
        except EngineError as exc:
            with pytest.raises(EngineError) as info:
                exchange(matrix, labels, totals, k)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            tally[type(exc).__name__] += 1
            return
        move = exchange(matrix, labels, totals, k)
        assert (move.labels, move.picked_in_side) == expected
        assert move.new_label == move.labels[k - 1]
        assert move.totals == weighed(move.labels, weights)
        tally["step"] += 1
        matrix, labels, totals = matrix.mutate(k), move.labels, move.totals


def random_path(rng, matrix, depth):
    return [rng.choice(matrix.mutable) for _ in range(depth)]


def test_carried_totals_pick_the_side_of_the_full_sum_rule():
    """Both label walks agree step by step with the full-sum oracle, from the
    initial labels: random words over every pool matrix, the E8 60-step plan
    path and the whole plan and random walks of the wild word."""
    rng = random.Random(31)
    walks = []
    for cartan in CARTAN_POOL:
        for _ in range(12):
            word = random_reduced_word(rng, cartan, rng.randint(2, 9))
            walks.append((word, None))
    walks.append((E8_WORD, [step.vertex for step in mu_i_plan(E8_WORD).steps[:60]]))
    walks.append((WILD_WORD, [step.vertex for step in mu_i_plan(WILD_WORD).steps]))
    walks += [(WILD_WORD, None)] * 4
    tally = Counter()
    for word, path in walks:
        tables = hom_tables(word)
        matrix = b_matrix(gamma_i(word))
        if not matrix.mutable:
            continue
        for dominant, start, weights in (
            (True, initial_dimvec_labels(tables), (1,) * word.r),
            (False, initial_delta_labels(tables), tables.d_delta),
        ):
            steps = path or random_path(rng, matrix, 12)
            walk_against_reference(matrix, *start, weights, steps, dominant, tally)
    assert tally["step"] > 1000


def test_carried_totals_match_the_full_sum_rule_on_arbitrary_labels():
    """Small random labels on the word matrices reach ties and both errors;
    the carried-total exchange agrees with the oracle on each of them, with
    the same error class and message."""
    rng = random.Random(37)
    tally = Counter()
    for cartan in (*CARTAN_POOL, WILD3):
        for _ in range(20):
            word = random_reduced_word(rng, cartan, rng.randint(2, 9))
            matrix = b_matrix(gamma_i(word))
            if not matrix.mutable:
                continue
            for dominant, weights in ((True, (1,) * word.r), (False, hom_tables(word).d_delta)):
                labels = tuple(
                    tuple(rng.randint(0, 2) for _ in range(word.r)) for _ in range(word.r)
                )
                walk_against_reference(
                    matrix, labels, weighed(labels, weights), weights,
                    random_path(rng, matrix, 8), dominant, tally,
                )
    assert min(tally["tie"], tally["NegativeEntryError"], tally["MismatchError"]) > 5


def test_negative_entry_is_raised_before_the_dominance_mismatch():
    """The in-side (total 5) is picked and does not dominate the out-side, and
    taking the old label off it leaves -4: the negative entry is reported."""
    matrix = ExchangeMatrix(3, (1,), [[0], [-1], [1]])
    labels, totals = ((9, 0, 0), (5, 0, 0), (0, 1, 0)), (9, 5, 1)
    with pytest.raises(NegativeEntryError, match=r"mutation at 1 left .*: \(-4, 0, 0\)"):
        reference_exchange(matrix, labels, 1, (1, 1, 1), True)
    with pytest.raises(NegativeEntryError, match=r"mutation at 1 left .*: \(-4, 0, 0\)"):
        mutate_dimvec(matrix, labels, totals, 1)


RIGIDITY_WORDS = (
    E8_WORD,
    ReducedWord(CARTAN_POOL[4], (4, 1, 2, 3) * 3),
    ReducedWord(CartanMatrix.from_edges(2, [(1, 2, 2)]), (1, 2, 1, 2, 1, 2, 1)),
    WILD_WORD,
)


def rigidity_mismatches(word) -> int:
    """Pairs k, s with VV[k][s] + VV[s][k] != (dim V_k, dim V_s)."""
    vv = hom_tables(word).VV
    dims = [dim_V(word, k) for k in range(1, word.r + 1)]
    return sum(
        vv[k][s] + vv[s][k] != sym_form(word.cartan, dims[k], dims[s])
        for k in range(word.r)
        for s in range(k, word.r)
    )


@pytest.mark.parametrize("word", RIGIDITY_WORDS, ids=["E8", "D4", "affine-A1", "wild"])
def test_hom_tables_are_rigid(word):
    """T = V_1 + ... + V_r is rigid, so by Crawley-Boevey's formula (2000,
    Lemma 1) dim Hom(V_k, V_s) + dim Hom(V_s, V_k) = (dim V_k, dim V_s)."""
    assert rigidity_mismatches(word) == 0


def test_rigidity_catches_a_vm_without_the_agreeing_letters_one(monkeypatch):
    """A VM that leaves out the 1 where the letters of k > s agree breaks
    rigidity on every word.  VV is built beside VM, not from it, so the hook
    also sets VV to the chain sums of that VM."""
    built = HomTables.VM.func

    def without_one(self):
        letters = self.word.positions
        return tuple(
            tuple(x - (k > s and letters[k] == letters[s]) for s, x in enumerate(row))
            for k, row in enumerate(built(self))
        )

    def chain_sums(self):
        k_minus = [self.word.k_minus(s) for s in range(1, self.word.r + 1)]
        rows = []
        for vm_row in self.VM:
            row = list(vm_row)
            for s, sm in enumerate(k_minus):
                if sm:
                    row[s] += row[sm - 1]
            rows.append(tuple(row))
        return tuple(rows)

    monkeypatch.setattr(HomTables, "VM", property(without_one))
    monkeypatch.setattr(HomTables, "VV", property(chain_sums))
    for word in RIGIDITY_WORDS:
        assert rigidity_mismatches(word) > 0, word.printed
