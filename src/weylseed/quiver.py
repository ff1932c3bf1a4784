"""Quivers, exchange matrices, seed mutation, and the word-indexed quiver.

The exchange matrix keeps one column per mutable vertex; rows run over all
vertices.  Entry b[i][col] counts arrows (col's vertex -> i) minus arrows
(i -> col's vertex), so positive entries in a column point away from that
column's vertex.  Arrows between two frozen vertices are intentionally not
representable: they are not needed for seed mutation and are not controlled
by it.

Each matrix scans a column for its neighbors at most once: the exchange
check, the label exchange and the mutation at k all read the one scan.

Matrix mutation at k (Fomin-Zelevinsky) rewrites only row k, column k and
the entries b_ij with b_ik and b_kj both nonzero, so it touches O(deg(k)^2)
entries besides copying the rows of k's neighbors.  Skew-symmetry of the
principal part is checked in full when a matrix is built from outside;
after a mutation it is checked on the pairs of mutable vertices among k and
its neighbors, the only pairs whose entries change.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import neg
from typing import Iterable, Mapping, Sequence

from .cartan import QuiverOrientation, ReducedWord, _is_int
from .errors import EngineError, ValidationError
from .laurent import LaurentPoly, VarTable


@dataclass(frozen=True)
class Quiver:
    """Vertices 1..r, a frozen subset, and an arrow multiset."""

    r: int
    frozen: frozenset[int]
    arrows: tuple[tuple[int, int, int], ...]  # (source, target, multiplicity)

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for s, t, m in self.arrows:
            if not (1 <= s <= self.r and 1 <= t <= self.r):
                raise ValidationError(f"arrow {(s, t)} out of range")
            if s == t:
                raise ValidationError("loops are not allowed")
            if m < 1:
                raise ValidationError("arrow multiplicity must be positive")
            if (s, t) in seen:
                raise ValidationError("duplicate arrow entry; merge multiplicities")
            seen.add((s, t))
        for s, t, _ in self.arrows:
            if (t, s) in seen and not (s in self.frozen and t in self.frozen):
                raise ValidationError(f"2-cycle between {s} and {t}")

    @property
    def mutable(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.r + 1) if v not in self.frozen)

    def to_json(self) -> dict:
        return {
            "vertices": self.r,
            "frozen": sorted(self.frozen),
            "arrows": [list(a) for a in sorted(self.arrows)],
        }


def crossing_links(word: ReducedWord, s: int) -> list[tuple[int, int]]:
    """(t, q_{i_s, i_t}) for the positions t with t+ >= s+ > t, t != s and
    q nonzero, in increasing t.

    Such a t is the last occurrence of its letter below s+, so each letter
    joined to i_s gives at most one t, found by one bisection of its chain.
    On the chain of s itself only t = s qualifies.
    """
    sp = word.k_plus(s)
    links = []
    for j, q in word.cartan.adjacent(word.letter(s)):
        t = word.last_below(sp, j)
        if t:
            links.append((t, q))
    links.sort()
    return links


def gamma_i(word: ReducedWord) -> Quiver:
    """The quiver attached to a reduced word.

    Ordinary arrows: q_{i_s, i_t} arrows s -> t whenever t+ >= s+ > t > s.
    Horizontal arrows: s -> s- whenever s- > 0.  Frozen vertices are the
    final occurrences of each letter.
    """
    arrows = []
    for s in range(1, word.r + 1):
        sm = word.k_minus(s)
        if sm > 0:
            arrows.append((s, sm, 1))
        arrows += [(s, t, q) for t, q in crossing_links(word, s) if t > s]
    return Quiver(word.r, word.frozen_positions(), tuple(sorted(arrows)))


class ExchangeMatrix:
    """Integer matrix with one column per mutable vertex, rows over all vertices."""

    __slots__ = ("r", "mutable", "rows", "_col_of", "_sides")

    def __init__(
        self,
        r: int,
        mutable: Sequence[int],
        rows: Sequence[Sequence[int]],
    ):
        self.r = r
        self.mutable = tuple(mutable)
        self.rows = tuple(tuple(row) for row in rows)
        if len(self.rows) != r or any(len(row) != len(self.mutable) for row in self.rows):
            raise ValidationError("exchange matrix shape mismatch")
        for v in self.mutable:
            if not 1 <= v <= r:
                raise ValidationError("mutable vertex out of range")
        self._col_of = {v: c for c, v in enumerate(self.mutable)}
        if len(self._col_of) != len(self.mutable):
            raise ValidationError("mutable vertices must be distinct")
        self._sides: dict[int, tuple[list, list]] = {}
        self._check_skew(self.mutable)

    def _check_skew(self, vertices: Iterable[int]) -> None:
        """b_vw = -b_wv for every pair of the given mutable vertices."""
        col_of, rows = self._col_of, self.rows
        cols = [(v, col_of[v]) for v in vertices]
        for v, cv in cols:
            row = rows[v - 1]
            for w, cw in cols:
                if row[cw] != -rows[w - 1][cv]:
                    raise ValidationError("principal part is not skew-symmetric")

    @property
    def frozen(self) -> frozenset[int]:
        return frozenset(range(1, self.r + 1)) - set(self.mutable)

    def col(self, k: int) -> int:
        try:
            return self._col_of[k]
        except KeyError:
            raise ValidationError(f"vertex {k} is frozen or absent") from None

    def entry(self, i: int, k: int) -> int:
        """b_ik = #(k -> i) - #(i -> k); k must be mutable."""
        return self.rows[i - 1][self.col(k)]

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation at k, rewriting only the rows of k and its neighbors."""
        c = self.col(k)
        rows = list(self.rows)
        row_k = rows[k - 1]
        # columns j with b_kj != 0: the only ones a neighbor row changes in
        hits = [(j, row_k[j], abs(row_k[j])) for j in compress(range(len(row_k)), row_k)]
        neighbors = [i for side in self.neighbors(k) for i, _ in side]
        for i in neighbors:
            row = list(rows[i - 1])
            b_ik = row[c]
            for j, b_kj, abs_kj in hits:
                if (b_ik > 0) == (b_kj > 0):
                    row[j] += b_ik * abs_kj
            row[c] = -b_ik
            rows[i - 1] = tuple(row)
        rows[k - 1] = tuple(map(neg, row_k))
        # built without __init__: only the changed pairs are re-checked
        out = object.__new__(ExchangeMatrix)
        out.r, out.mutable, out._col_of = self.r, self.mutable, self._col_of
        out.rows, out._sides = tuple(rows), {}
        out._check_skew([k] + [i for i in neighbors if i in self._col_of])
        return out

    def neighbors(self, k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(vertex, multiplicity) pairs with arrows vertex -> k, then with k -> vertex.

        Column k is scanned on the first call only; later calls return the
        same two lists, which callers must not change.
        """
        sides = self._sides.get(k)
        if sides is not None:
            return sides
        c = self.col(k)
        ins, outs = [], []
        for i, row in enumerate(self.rows, start=1):
            b_ik = row[c]
            if not b_ik:
                continue
            if b_ik < 0:
                ins.append((i, -b_ik))
            else:
                outs.append((i, b_ik))
        sides = self._sides[k] = (ins, outs)
        return sides

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExchangeMatrix)
            and self.r == other.r
            and self.mutable == other.mutable
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.r, self.mutable, self.rows))

    def to_json(self) -> dict:
        return {
            "vertices": self.r,
            "mutable": list(self.mutable),
            "rows": [list(row) for row in self.rows],
        }

    @staticmethod
    def from_json(doc: Mapping) -> "ExchangeMatrix":
        """Build from ``to_json`` output; any malformed document is a ValidationError."""
        if not isinstance(doc, Mapping) or not {"vertices", "mutable", "rows"} <= doc.keys():
            raise ValidationError("exchange matrix needs 'vertices', 'mutable' and 'rows'")
        r, mutable, rows = doc["vertices"], doc["mutable"], doc["rows"]
        if not (
            _is_int(r)
            and isinstance(mutable, list)
            and all(_is_int(v) for v in mutable)
            and isinstance(rows, list)
            and all(isinstance(row, list) and all(_is_int(x) for x in row) for row in rows)
        ):
            raise ValidationError("exchange matrix entries must be integers in lists")
        return ExchangeMatrix(r, mutable, rows)


def b_matrix(quiver: Quiver) -> ExchangeMatrix:
    """b_ij = #(j -> i) - #(i -> j), columns restricted to mutable vertices.

    Filled from the arrow list: an arrow s -> t of multiplicity m sets
    b_ts = m and b_st = -m wherever the column is mutable.
    """
    mutable = quiver.mutable
    col_of = {v: c for c, v in enumerate(mutable)}
    rows = [[0] * len(mutable) for _ in range(quiver.r)]
    for s, t, m in quiver.arrows:
        if s in col_of:
            rows[t - 1][col_of[s]] = m
        if t in col_of:
            rows[s - 1][col_of[t]] = -m
    return ExchangeMatrix(quiver.r, mutable, rows)


class Seed:
    """An exchange matrix with exact Laurent cluster variables.

    Cluster entries are Laurent polynomials in the initial variables
    y_1..y_r; provenance records the mutation path from the initial seed.
    """

    __slots__ = ("matrix", "cluster", "provenance")

    def __init__(
        self,
        matrix: ExchangeMatrix,
        cluster: Sequence[LaurentPoly],
        provenance: tuple[int, ...] = (),
    ):
        if len(cluster) != matrix.r:
            raise ValidationError("cluster size must match vertex count")
        self.matrix = matrix
        self.cluster = tuple(cluster)
        self.provenance = provenance

    @property
    def table(self) -> VarTable:
        return self.cluster[0].vars

    @staticmethod
    def initial(matrix: ExchangeMatrix) -> "Seed":
        table = VarTable.indexed("y", matrix.r)
        cluster = [LaurentPoly.var(table, f"y{k}") for k in range(1, matrix.r + 1)]
        return Seed(matrix, cluster)

    @staticmethod
    def from_word(word: ReducedWord) -> "Seed":
        return Seed.initial(b_matrix(gamma_i(word)))

    def mutate(self, k: int) -> "Seed":
        """Exchange x_k for (prod over out-arrows + prod over in-arrows) / x_k."""
        table, cluster = self.table, self.cluster
        ins, outs = self.matrix.neighbors(k)
        out_prod = LaurentPoly.product(table, (cluster[i - 1] ** m for i, m in outs))
        in_prod = LaurentPoly.product(table, (cluster[i - 1] ** m for i, m in ins))
        new_var = (out_prod + in_prod).exact_div(cluster[k - 1])
        cluster = cluster[: k - 1] + (new_var,) + cluster[k:]
        return Seed(self.matrix.mutate(k), cluster, self.provenance + (k,))

    def mutate_path(self, path: Iterable[int]) -> "Seed":
        """Mutate along ``path``; an engine error names the step and vertex."""
        seed = self
        for step, k in enumerate(path, start=1):
            try:
                seed = seed.mutate(k)
            except EngineError as exc:
                raise type(exc)(f"step {step}, vertex {k}: {exc}") from exc
        return seed

    def specialize_frozen(self) -> tuple[LaurentPoly, ...]:
        """Cluster with the frozen initial variables set to 1.

        That projects every exponent onto the mutable vertices; terms that
        then coincide add up.
        """
        frozen = self.matrix.frozen
        keep = [v not in frozen for v in range(1, self.matrix.r + 1)]
        out = []
        for x in self.cluster:
            terms: dict[tuple[int, ...], int] = {}
            for exp, coef in x.terms.items():
                key = tuple([e if k else 0 for e, k in zip(exp, keep)])
                terms[key] = terms.get(key, 0) + coef
            out.append(LaurentPoly(x.vars, terms))
        return tuple(out)


def denominator_vector(seed: Seed, position: int) -> tuple[int, ...]:
    """Negated minimal exponents of the mutable initial variables."""
    entry = seed.cluster[position - 1]
    mins = entry.min_exponents()
    return tuple(-mins[v - 1] for v in seed.matrix.mutable)


class SeedRegistry:
    """Insert-if-absent registry of seeds, compared by value, for walk deduplication.

    Also records denominator-vector collisions: distinct cluster variables
    sharing a denominator vector are logged rather than assumed impossible.
    """

    def __init__(self) -> None:
        self.seen: set[tuple] = set()
        self.by_denominator: dict[tuple, set] = {}
        self.collisions: list[tuple] = []

    def insert_if_absent(self, seed: Seed) -> bool:
        key = (seed.matrix, seed.cluster)
        if key in self.seen:
            return False
        self.seen.add(key)
        for pos in seed.matrix.mutable:
            den = denominator_vector(seed, pos)
            content = seed.cluster[pos - 1]
            bucket = self.by_denominator.setdefault(den, set())
            if content not in bucket and bucket:
                self.collisions.append(den)
            bucket.add(content)
        return True


def _is_linear_type_a(orientation: QuiverOrientation) -> bool:
    cartan = orientation.cartan
    if not cartan.is_type_a():
        return False
    # linearly oriented: every inner vertex has one in- and one out-arrow
    # along the path, i.e. arrows all point the same way along 1-2-...-n
    ups = all((i, i + 1, 1) in orientation.arrows for i in range(1, cartan.n))
    downs = all((i + 1, i, 1) in orientation.arrows for i in range(1, cartan.n))
    return ups or downs


def coefficient_free_matrix(orientation: QuiverOrientation) -> ExchangeMatrix:
    """The n x n exchange matrix of an orientation, no frozen part.

    Repeated arrows are merged; a 2-cycle is a ValidationError.
    """
    mult: dict[tuple[int, int], int] = {}
    for s, t, m in orientation.arrows:
        mult[(s, t)] = mult.get((s, t), 0) + m
    arrows = tuple((s, t, m) for (s, t), m in mult.items())
    return b_matrix(Quiver(orientation.cartan.n, frozenset(), arrows))


def acyclic_double(orientation: QuiverOrientation) -> ReducedWord:
    """The squared Coxeter word of an acyclic quiver.

    Vertices must be numbered so arrows go i -> j with i < j.  For a linearly
    oriented type A quiver the squared word is not reduced and the
    construction is refused.
    """
    if not orientation.is_acyclic():
        raise ValidationError("quiver has an oriented cycle")
    for s, t, _ in orientation.arrows:
        if s >= t:
            raise ValidationError("arrows must go i -> j with i < j")
    if _is_linear_type_a(orientation):
        raise ValidationError(
            "squared Coxeter word is not reduced for linearly oriented type A"
        )
    n = orientation.cartan.n
    printed = tuple(range(n, 0, -1)) * 2
    return ReducedWord(orientation.cartan, printed)


def y_dagger(seed: Seed) -> Seed:
    """Mutate once at every vertex in increasing order (coefficient-free use)."""
    path = sorted(seed.matrix.mutable)
    return seed.mutate_path(path)
