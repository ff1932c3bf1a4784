"""Integer Hom-dimension tables over the endomorphism algebra of a word,
standard-module data, the Ringel form on standards, and mutation of
dimension vectors and filtration-multiplicity vectors.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .cartan import ReducedWord, sym_form
from .errors import NegativeEntryError, ValidationError
from .quiver import ExchangeMatrix

logger = logging.getLogger(__name__)

Vec = tuple[int, ...]


@dataclass(frozen=True)
class HomTables:
    """VM[k][s] = dim Hom(V_k, M_s); VV[k][s] = dim Hom(V_k, V_s).

    Column s of VM is the dimension vector of the standard module attached
    to position s; VV columns are its partial chain sums.  d_delta holds the
    total dimensions of the standards (column sums of VM).
    """

    word_printed: tuple[int, ...]
    VM: tuple[Vec, ...]
    VV: tuple[Vec, ...]
    d_delta: Vec

    def dimvec_of_delta(self, a: Sequence[int]) -> Vec:
        """Image of a filtration-multiplicity vector under the VM columns."""
        r = len(self.VM)
        return tuple(
            sum(self.VM[k][s] * a[s] for s in range(r)) for k in range(r)
        )

    def to_json(self) -> dict:
        return {
            "word": list(self.word_printed),
            "VM": [list(row) for row in self.VM],
            "VV": [list(row) for row in self.VV],
            "d_delta": list(self.d_delta),
        }


def hom_tables(word: ReducedWord) -> HomTables:
    """Tables computed from the root sequence and the symmetrized form.

    dim Hom(V_k, M_s) is 0 for k < s, 1 for k = s, and for k > s the chain
    sum of (beta_k', beta_s) over k' = k, k-, k--, ... while k' > s, plus 1
    when the letters agree.  As k- carries the letter of k, this is
    VM[k][s] = (beta_k, beta_s) + VM[k-][s] when k- > s, and each form value
    is one dot product with the precomputed vector C beta_s.  VV sums VM
    over the chain of s up to s, so VV[k][s] = VM[k][s] + VV[k][s-].
    """
    cartan = word.cartan
    r = word.r
    n = cartan.n
    betas = word.betas
    letters = word.positions
    c_betas = [
        tuple(sum(cartan.rows[i][j] * beta[j] for j in range(n)) for i in range(n))
        for beta in betas
    ]
    k_minus = [word.k_minus(k) for k in range(1, r + 1)]
    vm = [[0] * r for _ in range(r)]
    for k in range(1, r + 1):
        beta_k, km, letter = betas[k - 1], k_minus[k - 1], letters[k - 1]
        row, prev = vm[k - 1], vm[km - 1]  # prev is read only when km > s >= 1
        for s in range(1, k):
            form = sum(x * y for x, y in zip(beta_k, c_betas[s - 1]))
            row[s - 1] = form + (prev[s - 1] if km > s else letter == letters[s - 1])
        row[k - 1] = 1
    vv = [[0] * r for _ in range(r)]
    for vm_row, vv_row in zip(vm, vv):
        for s, sm in enumerate(k_minus):
            vv_row[s] = vm_row[s] + (vv_row[sm - 1] if sm else 0)
    d_delta = tuple(sum(vm[k][s] for k in range(r)) for s in range(r))
    return HomTables(
        word.printed,
        tuple(tuple(row) for row in vm),
        tuple(tuple(row) for row in vv),
        d_delta,
    )


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


def initial_delta_labels(word: ReducedWord) -> tuple[Vec, ...]:
    """Interval indicator of positions k, k-, ..., k_min for each k."""
    r = word.r
    out = []
    for k in range(1, r + 1):
        vec = [0] * r
        cur = k
        while cur > 0:
            vec[cur - 1] = 1
            cur = word.k_minus(cur)
        out.append(tuple(vec))
    return tuple(out)


def _weighted_sum(pairs: Sequence[tuple[int, int]], labels: Sequence[Vec], r: int) -> Vec:
    acc = [0] * r
    for vertex, mult in pairs:
        lab = labels[vertex - 1]
        for i in range(r):
            acc[i] += mult * lab[i]
    return tuple(acc)


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
    weight,
    entrywise_max: bool,
) -> MutationStep:
    r = matrix.r
    if len(labels) != r:
        raise ValidationError("label count must match vertex count")
    ins, outs = matrix.neighbors(k)
    in_sum = _weighted_sum(ins, labels, r)
    out_sum = _weighted_sum(outs, labels, r)
    in_total = weight(in_sum)
    out_total = weight(out_sum)
    picked = in_sum if in_total > out_total else out_sum
    other = out_sum if in_total > out_total else in_sum
    dominated = all(p >= o for p, o in zip(picked, other))
    if entrywise_max and not dominated:
        logger.warning(
            "dominance violation at vertex %d: picked=%s other=%s totals=(%d,%d)",
            k,
            picked,
            other,
            in_total,
            out_total,
        )
        picked = tuple(max(p, o) for p, o in zip(picked, other))
    new_label = tuple(p - d for p, d in zip(picked, labels[k - 1]))
    if any(x < 0 for x in new_label):
        raise NegativeEntryError(
            f"mutation at {k} left the reachable component: {new_label}"
        )
    new_labels = list(labels)
    new_labels[k - 1] = new_label
    return MutationStep(new_label, tuple(new_labels), in_total > out_total, dominated)


def mutate_dimvec(
    matrix: ExchangeMatrix, labels: Sequence[Vec], k: int
) -> MutationStep:
    """Exchange the dimension-vector label at a mutable vertex.

    The replacement is minus the old label plus the entrywise maximum of the
    two arrow-weighted neighbor sums; the side with the larger total is
    expected to dominate coordinatewise, and violations are logged.  The
    matrix is only read: the caller mutates it at k.
    """
    return _mutate_labels(matrix, labels, k, lambda v: sum(v), True)


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
    return _mutate_labels(
        matrix, labels, k, lambda v: sum(x * w for x, w in zip(v, d_delta)), False
    )
