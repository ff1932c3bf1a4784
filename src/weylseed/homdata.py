"""Integer Hom-dimension tables over the endomorphism algebra of a word,
standard-module data, the Ringel form on standards, and mutation of
dimension vectors and filtration-multiplicity vectors.

Both label exchanges keep the neighbor sum with the larger weighted total; for
dimension vectors it must dominate the other sum, or MismatchError is raised.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
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


def initial_dimvec_labels(tables: HomTables) -> tuple[Vec, ...]:
    """Dimension vectors of the projectives, i.e. the VV columns."""
    return tuple(zip(*tables.VV))


def interval_indicator(word: ReducedWord, b: int, a: int) -> Vec:
    """Indicator of the chain positions b, b-, b--, ... that are >= a (a >= 1);
    the zero vector when a > b."""
    vec = [0] * word.r
    cur = b
    while cur >= a:
        vec[cur - 1] = 1
        cur = word.k_minus(cur)
    return tuple(vec)


def initial_delta_labels(word: ReducedWord) -> tuple[Vec, ...]:
    """Interval indicator of positions k, k-, ..., k_min for each k."""
    return tuple(interval_indicator(word, k, word.k_min(k)) for k in range(1, word.r + 1))


def _vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(map(add, a, b))


def _side_sums(matrix: ExchangeMatrix, labels: Sequence[Vec], k: int) -> list[Vec]:
    """Arrow-weighted sums of the neighbor labels: into k, then out of k."""
    sums = []
    for pairs in matrix.neighbors(k):
        terms = [
            labels[v - 1] if mult == 1 else tuple(map(mul, repeat(mult), labels[v - 1]))
            for v, mult in pairs
        ]
        sums.append(reduce(_vec_add, terms) if terms else (0,) * matrix.r)
    return sums


@dataclass(frozen=True)
class MutationStep:
    new_label: Vec
    labels: tuple[Vec, ...]
    picked_in_side: bool
    dominated: bool


def _mutate_labels(
    matrix: ExchangeMatrix,
    labels: Sequence[Vec],
    k: int,
    weights: Sequence[int],
) -> MutationStep:
    in_sum, out_sum = _side_sums(matrix, labels, k)
    picked_in = sum(map(mul, in_sum, weights)) > sum(map(mul, out_sum, weights))
    picked, other = (in_sum, out_sum) if picked_in else (out_sum, in_sum)
    dominated = all(map(ge, picked, other))
    new_label = tuple(map(sub, picked, labels[k - 1]))
    if min(new_label) < 0:
        raise NegativeEntryError(
            f"mutation at {k} left the reachable component: {new_label}"
        )
    new_labels = list(labels)
    new_labels[k - 1] = new_label
    return MutationStep(new_label, tuple(new_labels), picked_in, dominated)


def mutate_dimvec(
    matrix: ExchangeMatrix, labels: Sequence[Vec], k: int
) -> MutationStep:
    """Exchange the dimension-vector label at a mutable vertex.

    The replacement is minus the old label plus the neighbor sum with the
    larger total.  That sum must dominate the other one coordinatewise;
    otherwise the exchange raises MismatchError naming the vertex and both
    totals.  The matrix is only read: the caller mutates it at k.
    """
    move = _mutate_labels(matrix, labels, k, (1,) * matrix.r)
    if not move.dominated:
        low, high = sorted(map(sum, _side_sums(matrix, labels, k)))
        raise MismatchError(
            f"dimension-vector exchange at vertex {k}: total {high} does not dominate total {low}"
        )
    return move


def mutate_delta_dimvec(
    matrix: ExchangeMatrix,
    labels: Sequence[Vec],
    k: int,
    d_delta: Sequence[int],
) -> MutationStep:
    """Same exchange on filtration-multiplicity vectors.

    The side is selected purely by the neighbor sums weighted with the total
    dimensions of the standard modules; unlike the dimension-vector rule the
    chosen side need not dominate the other one coordinatewise.
    """
    return _mutate_labels(matrix, labels, k, d_delta)
