"""Integer Hom-dimension tables over the endomorphism algebra of a word,
standard-module data, the Ringel form on standards, and mutation of
dimension vectors and filtration-multiplicity vectors.

Both label exchanges keep the neighbor sum with the larger weighted total; for
dimension vectors it must dominate the other sum, or MismatchError is raised.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def _side_sums(matrix: ExchangeMatrix, labels: Sequence[Vec], k: int) -> list[Vec]:
    """Arrow-weighted sums of the neighbor labels: into k, then out of k."""
    r = matrix.r
    sums = []
    for pairs in matrix.neighbors(k):
        acc = [0] * r
        for vertex, mult in pairs:
            lab = labels[vertex - 1]
            for i in range(r):
                acc[i] += mult * lab[i]
        sums.append(tuple(acc))
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
    if len(labels) != matrix.r:
        raise ValidationError("label count must match vertex count")
    in_sum, out_sum = _side_sums(matrix, labels, k)
    in_total = sum(x * w for x, w in zip(in_sum, weights))
    out_total = sum(x * w for x, w in zip(out_sum, weights))
    picked_in = in_total > out_total
    picked, other = (in_sum, out_sum) if picked_in else (out_sum, in_sum)
    dominated = all(p >= o for p, o in zip(picked, other))
    new_label = tuple(p - d for p, d in zip(picked, labels[k - 1]))
    if any(x < 0 for x in new_label):
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
