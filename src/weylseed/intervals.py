"""The explicit mutation pass that reverses every letter chain of a word
quiver, with interval labels tracked at each vertex, the exchange identities
it produces, and expansion of cluster variables in the basis dual to the
chain-subquotient modules.

An interval label [b, a] names the subquotient with top index b and bottom
index a (same letter, a <= b); a label [b, a] with a > b is the unit and is
dropped from products.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .cartan import ReducedWord
from .errors import (
    IdentityFailsError,
    NotDivisibleError,
    NotPolynomialAfterSubstitutionError,
    StepMismatchError,
    ValidationError,
    located,
)
from .homdata import hom_tables
from .laurent import LaurentPoly, VarTable
from .quiver import Seed, WorkingMatrix, b_matrix, exchange, gamma_i


class IntervalLabel(NamedTuple):
    """Positions b >= a carrying the same letter; a > b encodes the unit."""

    b: int
    a: int

    @property
    def is_unit(self) -> bool:
        return self.a > self.b

    def validate(self, word: ReducedWord) -> None:
        if self.is_unit:
            return
        if not (1 <= self.a <= self.b <= word.r):
            raise ValidationError(f"interval {self} out of range")
        if word.letter(self.a) != word.letter(self.b):
            raise ValidationError(f"interval {self} endpoints carry different letters")

    def __repr__(self) -> str:
        return "1" if self.is_unit else f"M[{self.b},{self.a}]"


# IntervalLabel((b, a)) built by tuple.__new__ in C, skipping the Python-level
# __new__ of a NamedTuple; the step check builds several labels per step
_label = partial(tuple.__new__, IntervalLabel)


class PlanStep(NamedTuple):
    index: int  # 1-based position in the plan
    group: int  # word position whose chain pass this step belongs to
    vertex: int
    before: IntervalLabel
    after: IntervalLabel


_step = partial(tuple.__new__, PlanStep)  # PlanStep((index, ...)) built in C

# the canonical JSON of nested int sequences: arrays without spaces
_compact = partial(json.dumps, separators=(",", ":"))


@dataclass(frozen=True)
class MutationPlan:
    word_printed: tuple[int, ...]
    steps: tuple[PlanStep, ...]
    groups: tuple[tuple[int, ...], ...]  # mutated vertices per pass, k = 1..r

    @property
    def length(self) -> int:
        return len(self.steps)

    def json_text(self) -> str:
        """The plan's canonical JSON (keys sorted, no spaces): the word, the
        length, the groups, and each step with its labels as [b, a] pairs,
        one ``%`` format per step."""
        steps = ",".join(
            [
                '{"after":[%d,%d],"before":[%d,%d],"group":%d,"step":%d,"vertex":%d}'
                % (after_b, after_a, before_b, before_a, group, index, vertex)
                for index, group, vertex, (before_b, before_a), (after_b, after_a) in self.steps
            ]
        )
        return '{"groups":%s,"length":%d,"steps":[%s],"word":%s}' % (
            _compact(self.groups),
            self.length,
            steps,
            _compact(self.word_printed),
        )


def _pass_length(word: ReducedWord, k: int) -> int:
    """r_k = t_{i_k} - 1 - k[i_k], the number of steps of pass k."""
    return word.t(word.letter(k)) - 1 - word.occ_index(k)


def mu_i_plan(word: ReducedWord) -> MutationPlan:
    """One chain pass per word position, bottom of the chain upward.

    Pass k mutates the first r_k chain vertices; the vertex k_min^(m) finds
    label [k^(m), k] and leaves label [k^(m+1), k+].
    """
    steps: list[PlanStep] = []
    groups: list[tuple[int, ...]] = []
    for k in range(1, word.r + 1):
        chain, c = word.place(k)
        group = chain[: _pass_length(word, k)]
        for i, vertex in enumerate(group, start=c):  # chain[i] is k^(i - c)
            before = _label((chain[i], k))
            after = _label((chain[i + 1], chain[c + 1]))
            steps.append(_step((len(steps) + 1, k, vertex, before, after)))
        groups.append(group)
    return MutationPlan(word.printed, tuple(steps), tuple(groups))


def identity_positions(
    word: ReducedWord, k: int, s: int
) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """The exchange identity for the pass-k mutation at chain position s,
    [s, k] [s+, k+] = [s+, k] [s, k+] + the product of the factors [t, a]^q,
    as the positions that fix its labels: s+, k+ and a (t, a, q) triple per
    factor.  ``identity_sides`` turns them into labels.

    The factors sit at the positions k_min(s) < t < s+ linked to s
    (``ReducedWord.links``): those above s, then those below, each in
    increasing t.  The factor at t is [t, k^j] with exponent q_{i_s, i_t},
    where k^j = ``word.firsts(k)[j]`` is the first position at or above k
    carrying j = i_t, or r + 1 (the unit) when there is none.
    """
    chain, c = word.place(k)
    bottoms = word.firsts(k)
    above, below = [], []
    for t, q, j in word.links(s):
        if t > chain[0]:
            (above if t > s else below).append((t, bottoms[j], q))
    return word.k_plus(s), chain[c + 1], tuple(above + below)


def identity_sides(
    word: ReducedWord, k: int, s: int
) -> tuple[
    tuple[IntervalLabel, IntervalLabel],
    tuple[IntervalLabel, IntervalLabel],
    tuple[tuple[IntervalLabel, int], ...],
]:
    """The labels of ``identity_positions(word, k, s)``, a pair that
    ``identity_step`` accepts: the lhs pair ([s, k], [s+, k+]), the rhs
    first-term pair ([s+, k], [s, k+]) and the rhs product factors with their
    exponents.  Unit labels are kept and must be dropped by consumers.
    """
    sp, kp, factors = identity_positions(word, k, s)
    return (
        (_label((s, k)), _label((sp, kp))),
        (_label((sp, k)), _label((s, kp))),
        tuple([(_label((t, a)), q) for t, a, q in factors]),
    )


@dataclass
class MuIReport:
    plan: MutationPlan
    final_labels: tuple[IntervalLabel, ...]
    label_values: dict[IntervalLabel, LaurentPoly]
    steps_checked: int
    final_labels_ok: bool  # the m-th vertex of each chain holds [top, m-th from the top]
    chains_reversed: bool  # every horizontal arrow points up its chain


def _check_exchange(
    word: ReducedWord,
    matrix: WorkingMatrix,
    labels: Sequence[IntervalLabel],
    where: Mapping[IntervalLabel, int],
    step: PlanStep,
    weight: Sequence[int],
    weight_minus: Sequence[int],
) -> None:
    """Check column v of ``matrix`` against the step's identity in O(deg v).

    ``where`` maps each vertex label to its vertex; no two vertices share a
    label, since the summands of a basic cluster-tilting object are pairwise
    non-isomorphic.  Each non-unit label of the identity has its entry of
    column v read through ``where``: the pair [s+, k], [s, k+] must carry
    +-1 with one sign, each factor [t, a] must carry -+q on the other side,
    and the column must have no other entry.  The label bags of the two
    sides are built only for the message of a mismatch.
    """
    k, v, s = step.group, step.vertex, step.before.b
    column = matrix.column(v)
    sp, kp, factors = identity_positions(word, k, s)
    sign = column.get(where.get((sp, k)))  # [s+, k] is never the unit: s+ <= r
    fits = sign == 1 or sign == -1
    entries, w_pair, w_factors = 1, weight[sp] - weight_minus[k], 0
    if kp <= s:
        fits = fits and column.get(where.get((s, kp))) == sign
        entries, w_pair = 2, w_pair + weight[s] - weight_minus[kp]
    for t, a, q in factors:
        if a <= t:
            fits = fits and column.get(where.get((t, a))) == -q * sign
            entries, w_factors = entries + 1, w_factors + q * (weight[t] - weight_minus[a])
    if not fits or len(column) != entries:
        rhs_pair, product_labels = identity_sides(word, k, s)[1:]
        pair = {lab: 1 for lab in rhs_pair if not lab.is_unit}
        product = {lab: q for lab, q in product_labels if not lab.is_unit}
        bag_in, bag_out = ({labels[u - 1]: mult for u, mult in side} for side in matrix.neighbors(v))
        raise StepMismatchError(
            f"step {step.index}: exchange neighborhoods do not match the identity pattern "
            f"at vertex {v}: in-side {bag_in}, out-side {bag_out}; "
            f"expected pair {pair}, factors {product}"
        )
    # a negative sign puts the pair on the in-side, which wins only when strictly heavier
    w_in, w_out = (w_pair, w_factors) if sign < 0 else (w_factors, w_pair)
    if (w_in > w_out) != (sign < 0):
        raise StepMismatchError(
            f"step {step.index}: d_delta weights pick the factor side at vertex {v}: "
            f"in-side {w_in}, out-side {w_out}"
        )


def run_mu_i(word: ReducedWord, max_seed_steps: int | None = None) -> MuIReport:
    """Execute the chain-reversal pass, validating every step.

    Each vertex holds only its interval label, and a label -> vertex map is
    kept beside the labels.  Checks per step: the mutated vertex carries the
    predicted label before and after, its column matches the identity
    pattern (``_check_exchange``, one read per label of the identity), and
    the filtration-multiplicity exchange leaves the new label.  The
    multiplicities of [b, a] are 1 at the chain positions b, b-, ..., a; the
    exchange keeps the side of larger d_delta-weighted total (the in-side
    only when strictly heavier), minus [s, k].  On one chain [s+, k] +
    [s, k+] = [s, k] + [s+, k+], so the pair side leaves [s+, k+]; the
    factors lie on other chains and leave -1 at s.  So the weights must pick
    the pair side: [b, a] weighs weight[b] - weight[a-], with weight[k] the
    sum of d_delta over the chain up to k (``HomTables.d_delta_prefix``,
    which the dense exchange also starts from).

    Laurent cluster tracking can be cut off after ``max_seed_steps`` steps
    (0 tracks none); the combinatorial checks always run the full plan.
    The pass owns one ``WorkingMatrix`` and reads no matrix but the current
    one, so it mutates that matrix in place and keeps no snapshot.  Only a
    tracked step sorts the mutated vertex's column, through ``neighbors``,
    for its Laurent exchange; the check reads the column unsorted.  Exchange
    supports blow up quickly on wild Cartan data, so callers verifying
    specific identities should cut the symbolic part at the step they need.
    An engine error raised by the exchange, such as a product over
    ``MAX_TERM_PAIRS``, is re-raised as the same class with the step and the
    vertex before its detail.  The report keeps the labels the pass ends
    with and settles its two final checks on them and on the last matrix,
    which it does not keep.
    """
    plan = mu_i_plan(word)
    initial = b_matrix(gamma_i(word))
    matrix = WorkingMatrix(initial)
    labels = [IntervalLabel(k, word.k_min(k)) for k in range(1, word.r + 1)]
    where = {lab: v for v, lab in enumerate(labels, start=1)}
    weight = hom_tables(word).d_delta_prefix
    weight_minus = [0] + [weight[word.k_minus(k)] for k in range(1, word.r + 1)]  # weight[k-]
    cluster = list(Seed.initial(initial).cluster)
    label_values = dict(zip(labels, cluster))
    tracked = plan.length if max_seed_steps is None else max_seed_steps
    for step in plan.steps:
        v = step.vertex
        if labels[v - 1] != step.before:
            raise StepMismatchError(
                f"step {step.index}: vertex {v} carries {labels[v - 1]}, expected {step.before}"
            )
        _check_exchange(word, matrix, labels, where, step, weight, weight_minus)
        if step.index <= tracked:
            with located(f"step {step.index}, vertex {v}"):
                cluster[v - 1] = exchange(cluster, v, matrix.neighbors(v))
            label_values[step.after] = cluster[v - 1]
        matrix.mutate(v)
        labels[v - 1] = step.after
        del where[step.before]
        where[step.after] = v
    chains = [word.chain(j) for j in range(1, word.cartan.n + 1)]
    return MuIReport(
        plan=plan,
        final_labels=tuple(labels),
        label_values=label_values,
        steps_checked=plan.length,
        final_labels_ok=all(
            labels[v - 1] == (chain[-1], a) for chain in chains for v, a in zip(chain, chain[::-1])
        ),
        # every vertex below the top of its chain is mutable and has a column
        chains_reversed=all(
            matrix.column(u).get(v) == 1 for chain in chains for u, v in zip(chain, chain[1:])
        ),
    )


def identity_step(word: ReducedWord, k: int, s: int) -> int:
    """Plan step index at which the pass-k exchange at chain position s occurs.

    Pass k' makes r_k' steps, so the step is 1 + m + sum of r_k' over
    k' < k, with m the chain distance from k to s.
    """
    if word.letter(k) != word.letter(s):
        raise ValidationError("positions must carry the same letter")
    m = word.occ_index(s) - word.occ_index(k)
    if not 0 <= m < _pass_length(word, k):
        raise ValidationError(f"pair (k={k}, s={s}) is not exchanged in the pass")
    return 1 + m + sum(_pass_length(word, kp) for kp in range(1, k))


def _product(
    table: VarTable,
    value: Callable[[IntervalLabel], LaurentPoly],
    pairs: Iterable[tuple[IntervalLabel, int]],
) -> LaurentPoly:
    """The product of value(label) ** q over the (label, q) pairs; unit labels
    are the constant one and are left out."""
    return LaurentPoly.product(table, (value(lab) ** q for lab, q in pairs if not lab.is_unit))


def verify_identity(
    word: ReducedWord,
    k: int,
    s: int,
    label_values: Mapping[IntervalLabel, LaurentPoly],
) -> dict:
    """Instantiate one exchange identity in the Laurent ring and check it.

    Both sides are formed from ``label_values``, the cluster expressions of
    the interval labels collected along the chain-reversal pass (run it
    symbolically up to ``identity_step(word, k, s)`` at least).
    """
    lhs_pair, rhs_pair, factors = identity_sides(word, k, s)
    table = next(iter(label_values.values())).vars

    def value(lab: IntervalLabel) -> LaurentPoly:
        if lab not in label_values:
            raise ValidationError(f"label {lab} was not produced by the pass")
        return label_values[lab]

    lhs = _product(table, value, ((lab, 1) for lab in lhs_pair))
    rhs1 = _product(table, value, ((lab, 1) for lab in rhs_pair))
    if lhs != rhs1 + _product(table, value, factors):
        raise IdentityFailsError(
            f"identity at (k={k}, s={s}) fails: {lhs_pair} vs {rhs_pair} + {factors}"
        )
    return {
        "k": k,
        "s": s,
        "lhs": [list((lab.b, lab.a)) for lab in lhs_pair],
        "rhs_pair": [list((lab.b, lab.a)) for lab in rhs_pair],
        "rhs_product": [[lab.b, lab.a, q] for lab, q in factors],
        "ok": True,
    }


class PBWExpander:
    """Expansion of interval labels in the variables dual to the chain
    subquotients, solving each label from shorter ones.

    Every division must be exact; a failure would contradict the
    polynomiality of the expansion and raises an engine error.
    """

    def __init__(self, word: ReducedWord):
        self.word = word
        self.table = VarTable.indexed("m", word.r)
        self._cache: dict[IntervalLabel, LaurentPoly] = {}

    def expand(self, label: IntervalLabel) -> LaurentPoly:
        """The expansion of ``label``.  Labels wait on an explicit stack, each
        beside its identity once read, and a label is solved once every label
        its identity reads is cached: a long chain takes no Python stack."""
        word, table, cache = self.word, self.table, self._cache
        if label.is_unit:
            return LaurentPoly.one(table)
        stack = [(label, None)]
        while stack:
            top, sides = stack.pop()
            if top in cache:
                continue
            if top.a == top.b:
                cache[top] = LaurentPoly.var(table, f"m{top.b}")
                continue
            if sides is None:
                # top = [b_prev^+, a] is rhs_pair[0] of the exchange identity
                # at (k=a, s=b_prev)
                sides = identity_sides(word, top.a, word.k_minus(top.b))
            lhs_pair, rhs_pair, factors = sides
            reads = (*lhs_pair, *[lab for lab, _ in factors], rhs_pair[1])
            missing = [(lab, None) for lab in reads[::-1] if not (lab.is_unit or lab in cache)]
            if missing:
                stack += [(top, sides), *missing]
                continue
            value = cache.__getitem__
            out = _product(table, value, ((lab, 1) for lab in lhs_pair))
            out -= _product(table, value, factors)
            if not rhs_pair[1].is_unit:
                try:
                    out = out.exact_div(cache[rhs_pair[1]])
                except NotDivisibleError as exc:
                    raise NotPolynomialAfterSubstitutionError(
                        f"expansion of {top} is not polynomial"
                    ) from exc
            cache[top] = out
        return cache[label]

    def expand_initial(self, k: int) -> LaurentPoly:
        """Expansion of the k-th initial cluster variable."""
        return self.expand(IntervalLabel(k, self.word.k_min(k)))

    def expand_laurent(self, expr: LaurentPoly) -> LaurentPoly:
        """Expansion of any cluster expression given in the initial variables."""
        images = {
            f"y{k}": self.expand_initial(k) for k in range(1, self.word.r + 1)
        }
        return expr.substitute(images)
