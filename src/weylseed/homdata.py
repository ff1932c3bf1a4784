"""Integer Hom-dimension tables over the endomorphism algebra of a word,
standard-module data, the Ringel form on standards, and mutation of
dimension vectors and filtration-multiplicity vectors.

Both label exchanges keep the neighbor sum with the larger weighted total; for
dimension vectors it must dominate the other sum, or MismatchError is raised.
The total is linear in the label, so a walk carries each label's total beside
it: entry sums for dimension vectors, and for filtration multiplicities the
d_delta weights, which start as the chain prefix sums ``d_delta_prefix`` that
the chain pass weighs its interval labels with.  An exchange picks its side
from deg(k) scalar totals, sums the labels of that side only (and of the other
side for the dominance check) and sets the new total to the picked total minus
the old one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, ge, mul, sub
from typing import Sequence

from .cartan import ReducedWord, sym_form
from .errors import MismatchError, NegativeEntryError, ValidationError
from .quiver import ExchangeMatrix

Vec = tuple[int, ...]


@dataclass(frozen=True)
class HomTables:
    """VM[k][s] = dim Hom(V_k, M_s); VV[k][s] = dim Hom(V_k, V_s).

    Column s of VM is the dimension vector of the standard module attached
    to position s; VV columns are its partial chain sums.  d_delta holds the
    total dimensions of the standards (column sums of VM).  VM and VV are
    built on first read, so a caller that needs only d_delta never builds
    an r x r table.
    """

    word: ReducedWord
    c_betas: tuple[Vec, ...]  # C beta_s for each position s
    d_delta: Vec

    @cached_property
    def VM(self) -> tuple[Vec, ...]:
        """dim Hom(V_k, M_s) is 0 for k < s, 1 for k = s, and for k > s the
        chain sum of (beta_k', beta_s) over k' = k, k-, k--, ... while k' > s,
        plus 1 when the letters agree.  As k- carries the letter of k, this
        is VM[k][s] = (beta_k, beta_s) + VM[k-][s] when k- > s, and each form
        value is one dot product with C beta_s."""
        word, c_betas = self.word, self.c_betas
        r, letters = word.r, word.positions
        vm = [[0] * r for _ in range(r)]
        for k in range(1, r + 1):
            beta_k, km, letter = word.betas[k - 1], word.k_minus(k), letters[k - 1]
            row, prev = vm[k - 1], vm[km - 1]  # prev is read only when km > s >= 1
            for s in range(1, k):
                form = sum(map(mul, beta_k, c_betas[s - 1]))
                row[s - 1] = form + (prev[s - 1] if km > s else letter == letters[s - 1])
            row[k - 1] = 1
        return tuple(map(tuple, vm))

    @cached_property
    def VV(self) -> tuple[Vec, ...]:
        """VV[k][s] = VM[k][s] + VV[k][s-], summing VM over the chain of s."""
        k_minus = [self.word.k_minus(s) for s in range(1, self.word.r + 1)]
        vv = []
        for vm_row in self.VM:
            vv_row = list(vm_row)
            for s, sm in enumerate(k_minus):
                if sm:
                    vv_row[s] += vv_row[sm - 1]
            vv.append(tuple(vv_row))
        return tuple(vv)

    @cached_property
    def d_delta_prefix(self) -> Vec:
        """Entry k (1-based; entry 0 is 0) sums d_delta over the chain
        positions k, k-, k--, ...: the d_delta weight of the interval label
        [k, k_min], and weight[b] - weight[a-] is the weight of [b, a]."""
        word, prefix = self.word, [0]
        for k, d in enumerate(self.d_delta, start=1):
            prefix.append(d + prefix[word.k_minus(k)])
        return tuple(prefix)

    def dimvec_of_delta(self, a: Sequence[int]) -> Vec:
        """Image of a filtration-multiplicity vector under the VM columns."""
        return tuple(sum(map(mul, row, a)) for row in self.VM)

    def to_json(self) -> dict:
        return {
            "word": list(self.word.printed),
            "VM": [list(row) for row in self.VM],
            "VV": [list(row) for row in self.VV],
            "d_delta": list(self.d_delta),
        }


def hom_tables(word: ReducedWord) -> HomTables:
    """Tables computed from the root sequence and the symmetrized form.

    Only d_delta is computed here, in O(r n^2) and without VM.  Let w_k be
    the number of chain positions at or above k, t_{i_k} - k[i_k].  Summing
    VM[k][s] over k, the form (beta_k', beta_s) of a position k' > s enters
    once for each of the w_k' positions k of its chain at or above k', and
    the diagonal 1 with the agreeing letters above s give w_s.  So
    d_delta[s] = w_s + (C beta_s) . sum over k' > s of w_k' beta_k'.
    """
    rows = word.cartan.rows
    c_betas = tuple(tuple(sum(map(mul, row, beta)) for row in rows) for beta in word.betas)
    d_delta = [0] * word.r
    above = (0,) * word.cartan.n  # sum of w_k' beta_k' over k' > s
    for s in range(word.r, 0, -1):
        w = word.t(word.letter(s)) - word.occ_index(s)
        d_delta[s - 1] = w + sum(map(mul, c_betas[s - 1], above))
        above = tuple(map(add, above, map(mul, repeat(w), word.betas[s - 1])))
    return HomTables(word, c_betas, tuple(d_delta))


def ringel_form_delta(word: ReducedWord, k: int, s: int) -> int:
    """Euler form of two standard modules: 0 below, 1 on, and the
    symmetrized root form above the diagonal."""
    if not (1 <= k <= word.r and 1 <= s <= word.r):
        raise ValidationError("index out of range")
    if k < s:
        return 0
    if k == s:
        return 1
    return sym_form(word.cartan, word.beta(k), word.beta(s))


def initial_dimvec_labels(tables: HomTables) -> tuple[tuple[Vec, ...], Vec]:
    """Dimension vectors of the projectives, i.e. the VV columns, and their
    entry sums."""
    labels = tuple(zip(*tables.VV))
    return labels, tuple(map(sum, labels))


def initial_delta_labels(tables: HomTables) -> tuple[tuple[Vec, ...], Vec]:
    """Interval indicators of positions k, k-, ..., k_min for each k, and
    their d_delta totals, the chain prefix sums.  One sweep up each chain
    sets one more entry for each position."""
    word = tables.word
    labels: list[Vec] = [()] * word.r
    for j in range(1, word.cartan.n + 1):
        vec = [0] * word.r
        for k in word.chain(j):
            vec[k - 1] = 1
            labels[k - 1] = tuple(vec)
    return tuple(labels), tables.d_delta_prefix[1:]


@dataclass(frozen=True)
class MutationStep:
    new_label: Vec
    labels: tuple[Vec, ...]
    totals: Vec
    picked_in_side: bool


def _side_total(pairs: list[tuple[int, int]], totals: Sequence[int]) -> int:
    return sum(mult * totals[v - 1] for v, mult in pairs)


def _side_sum(pairs: list[tuple[int, int]], labels: Sequence[Vec], r: int) -> Vec:
    """Arrow-weighted sum of the labels at ``pairs``."""
    acc = None
    for v, mult in pairs:
        term = labels[v - 1] if mult == 1 else tuple(map(mul, repeat(mult), labels[v - 1]))
        acc = term if acc is None else tuple(map(add, acc, term))
    return (0,) * r if acc is None else acc


def _exchange(
    matrix: ExchangeMatrix,
    labels: Sequence[Vec],
    totals: Sequence[int],
    k: int,
    dominant: bool,
) -> MutationStep:
    """Minus the old label plus the neighbor sum of the larger total (the
    in-side only when strictly larger); with ``dominant`` that sum must
    dominate the other one coordinatewise.  Totals are linear in the labels,
    so the new total is the picked total minus the old one."""
    ins, outs = matrix.neighbors(k)
    in_total, out_total = _side_total(ins, totals), _side_total(outs, totals)
    picked_in = in_total > out_total
    if picked_in:
        (picked, high), (other, low) = (ins, in_total), (outs, out_total)
    else:
        (picked, high), (other, low) = (outs, out_total), (ins, in_total)
    picked_sum = _side_sum(picked, labels, matrix.r)
    new_label = tuple(map(sub, picked_sum, labels[k - 1]))
    if min(new_label) < 0:
        raise NegativeEntryError(
            f"mutation at {k} left the reachable component: {new_label}"
        )
    if dominant and not all(map(ge, picked_sum, _side_sum(other, labels, matrix.r))):
        raise MismatchError(
            f"dimension-vector exchange at vertex {k}: total {high} does not dominate total {low}"
        )
    new_labels, new_totals = list(labels), list(totals)
    new_labels[k - 1] = new_label
    new_totals[k - 1] = high - totals[k - 1]
    return MutationStep(new_label, tuple(new_labels), tuple(new_totals), picked_in)


def mutate_dimvec(
    matrix: ExchangeMatrix, labels: Sequence[Vec], totals: Sequence[int], k: int
) -> MutationStep:
    """Exchange the dimension-vector label at a mutable vertex.

    ``totals`` holds the entry sums of ``labels``.  The replacement is minus
    the old label plus the neighbor sum with the larger total.  That sum must
    dominate the other one coordinatewise; otherwise the exchange raises
    MismatchError naming the vertex and both totals.  The matrix is only
    read: the caller mutates it at k.
    """
    return _exchange(matrix, labels, totals, k, dominant=True)


def mutate_delta_dimvec(
    matrix: ExchangeMatrix, labels: Sequence[Vec], totals: Sequence[int], k: int
) -> MutationStep:
    """Same exchange on filtration-multiplicity vectors.

    ``totals`` holds the labels weighted with the total dimensions d_delta
    of the standard modules; unlike the dimension-vector rule the chosen side
    need not dominate the other one coordinatewise.
    """
    return _exchange(matrix, labels, totals, k, dominant=False)
