"""Integer Hom-dimension tables over the endomorphism algebra of a word,
standard-module data, the Ringel form on standards, and mutation of
dimension vectors and filtration-multiplicity vectors.

The r x r tables VM and VV are built a row at a time, each row one int of
fixed-width lanes, one per position, as the Laurent layer packs exponents
into one key: about 2n big-integer multiply-adds a row.  Every entry is a
dimension, so each lane keeps its top bit free; reading a row whose top bits
are not clear raises MismatchError naming the row.  The decoded tables and the
labels are tuples of int rows, which the CLI writes as JSON text directly;
this module has no JSON form of its own.

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

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, ge, mul, sub
from typing import Sequence

from .cartan import ReducedWord, sym_form
from .errors import MismatchError, NegativeEntryError, ValidationError
from .quiver import ExchangeMatrix, WorkingMatrix

Vec = tuple[int, ...]

# memoryview formats of 1-, 2-, 4- and 8-byte unsigned lanes; a big-endian
# row lists its lanes last first
_NATIVE_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"


@dataclass(frozen=True)
class HomTables:
    """VM[k][s] = dim Hom(V_k, M_s); VV[k][s] = dim Hom(V_k, V_s).

    Column s of VM is the dimension vector of the standard module attached
    to position s; VV columns are its partial chain sums.  d_delta holds the
    total dimensions of the standards (column sums of VM).  VM and VV are
    built on first read, both from the packed rows of ``_rows``, so a
    caller that needs only d_delta never builds an r x r table.
    """

    word: ReducedWord
    c_betas: tuple[Vec, ...]  # C beta_s for each position s
    d_delta: Vec

    @cached_property
    def _rows(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """The lane width in bytes and the VM and VV rows, each row one int
        whose lane s - 1 (``width`` bytes, position 1 least significant)
        holds entry s.

        For k > s, dim Hom(V_k, M_s) is the chain sum of (beta_k', beta_s)
        over k' = k, k-, k--, ... while k' > s, plus 1 when the letters
        agree; as k- carries the letter of k, VM_k = sum over s < k of
        (beta_k, beta_s) e_s, plus VM_{k-}, plus e_k.  The form is
        sum_j (C beta_k)_j beta_s[j], so the first part is
        sum_j (C beta_k)_j T_j with T_j packing beta_s[j] for s < k.  VV
        sums VM over the chain of s up to s: with E_k the chain positions at
        or above k, VV_k = sum_j (C beta_k)_j S_j + VV_{k-} + E_k, where S_j
        sums beta_t[j] E_t over t < k.  Every entry is a dimension at most
        max(d_delta_prefix), which sets the width with a free top bit:
        1, 2, 4 or 8 bytes, or whole bytes beyond 8.
        """
        word = self.word
        width = (max(self.d_delta_prefix).bit_length() + 8) // 8
        if width <= 8:
            width = 1 << (width - 1).bit_length()
        bits = 8 * width
        above = [0] * (word.r + 1)  # E_k
        for j in range(1, word.cartan.n + 1):
            lanes = 0
            for k in reversed(word.chain(j)):
                lanes |= 1 << bits * (k - 1)
                above[k] = lanes
        t, s = [0] * word.cartan.n, [0] * word.cartan.n  # T_j and S_j
        vm, vv = [0], [0]  # row 0 stands for k- = 0
        for k, (c_beta, beta) in enumerate(zip(self.c_betas, word.betas), start=1):
            km, shift, chain_up = word.k_minus(k), bits * (k - 1), above[k]
            vm.append(sum(map(mul, c_beta, t), vm[km] + (1 << shift)))
            vv.append(sum(map(mul, c_beta, s), vv[km] + chain_up))
            for j, b in enumerate(beta):
                if b:
                    t[j] += b << shift
                    s[j] += b * chain_up
        return width, tuple(vm[1:]), tuple(vv[1:])

    def _decoded(self, name: str, rows: tuple[int, ...]) -> tuple[Vec, ...]:
        """The entries of packed ``rows``, after a guard test on each row."""
        width, r = self._rows[0], self.word.r
        size, bits = r * width, 8 * width
        # the top bit of every lane and every bit above the last one: a
        # negative or oversized entry sets one of them
        guard = int.from_bytes((1 << bits - 1).to_bytes(width, "little") * r, "little")
        guard -= 1 << 8 * size
        fmt = _NATIVE_LANES.get(width)
        out = []
        for k, row in enumerate(rows, start=1):
            if row & guard:
                raise MismatchError(
                    f"{name} row {k}: an entry is negative or above {(1 << bits - 1) - 1}"
                )
            if fmt is None:
                raw = memoryview(row.to_bytes(size, "little"))
                out.append(
                    tuple([int.from_bytes(raw[i : i + width], "little") for i in range(0, size, width)])
                )
            else:
                lanes = memoryview(row.to_bytes(size, sys.byteorder)).cast(fmt).tolist()
                out.append(tuple(lanes[::-1] if _BIG_ENDIAN else lanes))
        return tuple(out)

    @cached_property
    def VM(self) -> tuple[Vec, ...]:
        """Row k - 1 holds dim Hom(V_k, M_s) for s = 1..r."""
        return self._decoded("VM", self._rows[1])

    @cached_property
    def VV(self) -> tuple[Vec, ...]:
        """Row k - 1 holds dim Hom(V_k, V_s) for s = 1..r."""
        return self._decoded("VV", self._rows[2])

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
    matrix: ExchangeMatrix | WorkingMatrix,
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
    matrix: ExchangeMatrix | WorkingMatrix, labels: Sequence[Vec], totals: Sequence[int], k: int
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
    matrix: ExchangeMatrix | WorkingMatrix, labels: Sequence[Vec], totals: Sequence[int], k: int
) -> MutationStep:
    """Same exchange on filtration-multiplicity vectors.

    ``totals`` holds the labels weighted with the total dimensions d_delta
    of the standard modules; unlike the dimension-vector rule the chosen side
    need not dominate the other one coordinatewise.
    """
    return _exchange(matrix, labels, totals, k, dominant=False)
