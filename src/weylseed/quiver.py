"""Quivers, exchange matrices, seed mutation, and the word-indexed quiver.

The exchange matrix keeps one column per mutable vertex; rows run over all
vertices.  Entry b_ik counts arrows (k -> i) minus arrows (i -> k), so
positive entries in a column point away from that column's vertex.  Arrows
between two frozen vertices are intentionally not representable: they are
not needed for seed mutation and are not controlled by it.

Each column is stored sparsely, as the map from i to b_ik over its nonzero
entries in no particular order, so the neighbors of k are column k itself;
``neighbors`` sorts the column when it is read.  Dense rows exist only as the
input of the checking constructor and the output of ``to_json``.

Matrix mutation at k (Fomin-Zelevinsky) changes b_ij only where b_ik and
b_kj are both nonzero or one of i, j is k.  One rule, ``_mutate_columns``,
rewrites column k and the columns of k's mutable neighbors in place in
O(deg(k)^2).  ``ExchangeMatrix.mutate`` applies it to copies of those
columns and shares every other column with its input; a ``WorkingMatrix``,
owned by one mutation path, applies it to its own columns with no copies.
Mutation keeps a skew-symmetric principal part skew-symmetric, so the rule
and ``b_matrix`` build their columns skew-symmetric by construction,
unchecked; only a matrix built from dense rows is checked, on every nonzero
entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .cartan import QuiverOrientation, ReducedWord, _is_int
from .errors import ValidationError, located
from .laurent import LaurentPoly, VarTable


@dataclass(frozen=True)
class Quiver:
    """Vertices 1..r, a frozen subset, and an arrow multiset.

    Its arrows are not checked here: ``gamma_i`` builds them valid by
    construction, and ``coefficient_free_matrix`` takes them from arrows that
    ``QuiverOrientation.from_arrows`` has checked, merges repeats and
    rejects a 2-cycle itself.
    """

    r: int
    frozen: frozenset[int]
    arrows: tuple[tuple[int, int, int], ...]  # (source, target, multiplicity)

    @property
    def mutable(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.r + 1) if v not in self.frozen)

    def to_json(self) -> dict:
        return {
            "vertices": self.r,
            "frozen": sorted(self.frozen),
            "arrows": [list(a) for a in sorted(self.arrows)],
        }


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
        arrows += [(s, t, q) for t, q, _ in word.links(s) if t > s]
    return Quiver(word.r, word.frozen_positions(), tuple(sorted(arrows)))


def _mutate_columns(cols: dict[int, dict[int, int]], k: int, col_k: dict[int, int]) -> None:
    """Matrix mutation at k on ``cols`` itself, ``col_k`` being ``cols[k]``.

    For each arrow i -> k of multiplicity m and each arrow k -> j of
    multiplicity n, b_ji (in column i) gains m*n and b_ij (in column j) loses
    m*n, where those columns are mutable; then every entry at k changes sign.
    An entry that becomes nonzero is added at the end of its column.
    """
    ins = [(i, b) for i, b in col_k.items() if b < 0]
    outs = [(j, b) for j, b in col_k.items() if b > 0]
    for u, b_uk in col_k.items():
        col_u = cols.get(u)
        if col_u is None:
            continue  # frozen: no column
        # b_uw gains |b_uk| * b_wk over the other side w of k
        m = abs(b_uk)
        for w, b_wk in outs if b_uk < 0 else ins:
            b = col_u.get(w, 0) + m * b_wk
            if b:
                col_u[w] = b
            else:
                del col_u[w]
        col_u[k] = -col_u[k]
    for u, b_uk in col_k.items():
        col_k[u] = -b_uk


class _Columns:
    """One sparse column per mutable vertex: ``cols[k]`` maps each vertex i
    with b_ik != 0 to b_ik, in no particular order."""

    __slots__ = ("r", "mutable", "cols")

    @property
    def frozen(self) -> frozenset[int]:
        return frozenset(range(1, self.r + 1)) - set(self.mutable)

    def column(self, k: int) -> dict[int, int]:
        """The nonzero entries b_ik of column k, which callers must not change."""
        try:
            return self.cols[k]
        except KeyError:
            raise ValidationError(f"vertex {k} is frozen or absent") from None

    def entry(self, i: int, k: int) -> int:
        """b_ik = #(k -> i) - #(i -> k); k must be mutable."""
        return self.column(k).get(i, 0)

    def neighbors(self, k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(vertex, multiplicity) pairs with arrows vertex -> k, then with
        k -> vertex, each in increasing vertex order: column k is sorted as
        it is read."""
        entries = sorted(self.column(k).items())
        return [(i, -b) for i, b in entries if b < 0], [(i, b) for i, b in entries if b > 0]


class ExchangeMatrix(_Columns):
    """Integer matrix with one sparse column per mutable vertex, never
    changed once built."""

    __slots__ = ()

    def __init__(
        self,
        r: int,
        mutable: Sequence[int],
        rows: Sequence[Sequence[int]],
    ):
        """Build from dense rows over all vertices, checking every constraint."""
        self.r = r
        self.mutable = tuple(mutable)
        if len(rows) != r or any(len(row) != len(self.mutable) for row in rows):
            raise ValidationError("exchange matrix shape mismatch")
        for v in self.mutable:
            if not 1 <= v <= r:
                raise ValidationError("mutable vertex out of range")
        self.cols = {
            v: {i: row[c] for i, row in enumerate(rows, start=1) if row[c]}
            for c, v in enumerate(self.mutable)
        }
        if len(self.cols) != len(self.mutable):
            raise ValidationError("mutable vertices must be distinct")
        for v, col in self.cols.items():
            for w, b in col.items():
                col_w = self.cols.get(w)
                if col_w is not None and col_w.get(v, 0) != -b:
                    raise ValidationError("principal part is not skew-symmetric")

    @staticmethod
    def _of_columns(r: int, mutable: tuple[int, ...], cols: dict) -> "ExchangeMatrix":
        """Wrap columns that are skew-symmetric by construction, unchecked."""
        out = object.__new__(ExchangeMatrix)
        out.r, out.mutable, out.cols = r, mutable, cols
        return out

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation at k on copies of column k and of the columns of
        its mutable neighbors; every other column is shared."""
        col_k = self.column(k).copy()
        cols = self.cols.copy()
        for j in col_k:
            col_j = cols.get(j)
            if col_j is not None:
                cols[j] = col_j.copy()
        cols[k] = col_k
        _mutate_columns(cols, k, col_k)
        return ExchangeMatrix._of_columns(self.r, self.mutable, cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExchangeMatrix)
            and self.r == other.r
            and self.mutable == other.mutable
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        # equal columns may list their entries in different orders
        return hash((self.r, self.mutable, tuple(frozenset(c.items()) for c in self.cols.values())))

    def to_json(self) -> dict:
        """Dense rows over all vertices, filled from the nonzero entries of
        each column."""
        rows = [[0] * len(self.mutable) for _ in range(self.r)]
        for c, v in enumerate(self.mutable):
            for i, b in self.cols[v].items():
                rows[i - 1][c] = b
        return {"vertices": self.r, "mutable": list(self.mutable), "rows": rows}

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


class WorkingMatrix(_Columns):
    """A copy of an exchange matrix that one mutation path owns and mutates
    in place, for a loop that reads each matrix only before the next step."""

    __slots__ = ()

    def __init__(self, matrix: ExchangeMatrix):
        self.r, self.mutable = matrix.r, matrix.mutable
        self.cols = {v: col.copy() for v, col in matrix.cols.items()}

    def mutate(self, k: int) -> None:
        """Matrix mutation at k, in place."""
        _mutate_columns(self.cols, k, self.column(k))

    def matrix(self) -> ExchangeMatrix:
        """The matrix reached, handed its columns: the path's last read."""
        return ExchangeMatrix._of_columns(self.r, self.mutable, self.cols)


def b_matrix(quiver: Quiver) -> ExchangeMatrix:
    """b_ij = #(j -> i) - #(i -> j), columns restricted to mutable vertices.

    Filled from the arrow list: an arrow s -> t of multiplicity m sets
    b_ts = m and b_st = -m wherever the column is mutable.  A quiver has no
    loops and no 2-cycle through a mutable vertex, so the result is
    skew-symmetric without a check.
    """
    mutable = quiver.mutable
    cols: dict[int, dict[int, int]] = {v: {} for v in mutable}
    for s, t, m in quiver.arrows:
        if s in cols:
            cols[s][t] = m
        if t in cols:
            cols[t][s] = -m
    return ExchangeMatrix._of_columns(quiver.r, mutable, cols)


def exchange(cluster: Sequence[LaurentPoly], k: int, sides: tuple[list, list]) -> LaurentPoly:
    """The Fomin-Zelevinsky exchange of x_k, (prod over out-arrows + prod over
    in-arrows) / x_k, with ``sides`` the ``(ins, outs)`` pair of ``neighbors(k)``."""
    x_k, (ins, outs) = cluster[k - 1], sides
    out_prod = LaurentPoly.product(x_k.vars, (cluster[i - 1] ** m for i, m in outs))
    in_prod = LaurentPoly.product(x_k.vars, (cluster[i - 1] ** m for i, m in ins))
    return (out_prod + in_prod).exact_div(x_k)


class Seed:
    """An exchange matrix with exact Laurent cluster variables.

    Cluster entries are Laurent polynomials in the initial variables y_1..y_r.
    """

    __slots__ = ("matrix", "cluster")

    def __init__(self, matrix: ExchangeMatrix, cluster: Sequence[LaurentPoly]):
        self.matrix = matrix
        self.cluster = tuple(cluster)

    @staticmethod
    def initial(matrix: ExchangeMatrix) -> "Seed":
        table = VarTable.indexed("y", matrix.r)
        cluster = [LaurentPoly.var(table, f"y{k}") for k in range(1, matrix.r + 1)]
        return Seed(matrix, cluster)

    @staticmethod
    def from_word(word: ReducedWord) -> "Seed":
        return Seed.initial(b_matrix(gamma_i(word)))

    def mutate(self, k: int) -> "Seed":
        """Exchange x_k and mutate the matrix at k."""
        cluster = list(self.cluster)
        cluster[k - 1] = exchange(cluster, k, self.matrix.neighbors(k))
        return Seed(self.matrix.mutate(k), cluster)

    def walk(self, path: Iterable[int]) -> Iterator["Seed"]:
        """The seed after each step of ``path``; an engine error names the step and vertex."""
        seed = self
        for step, k in enumerate(path, start=1):
            with located(f"step {step}, vertex {k}"):
                seed = seed.mutate(k)
            yield seed

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

    def insert_if_absent(self, seed: Seed, mutated: int | None = None) -> bool:
        """Insert ``seed`` unless an equal one is in; whether it was new.

        A new seed's cluster variables go into the denominator buckets: all
        mutable positions, or only ``mutated`` when the seed is one mutation
        at that vertex away from a seed already inserted, whose other
        variables are in the buckets already.
        """
        size = len(self.seen)
        self.seen.add((seed.matrix, seed.cluster))
        if len(self.seen) == size:
            return False
        for pos in seed.matrix.mutable if mutated is None else (mutated,):
            den = denominator_vector(seed, pos)
            bucket = self.by_denominator.setdefault(den, set())
            size = len(bucket)
            bucket.add(seed.cluster[pos - 1])
            if 0 < size < len(bucket):
                self.collisions.append(den)
        return True


def coefficient_free_matrix(orientation: QuiverOrientation) -> ExchangeMatrix:
    """The n x n exchange matrix of an orientation, no frozen part.

    Repeated arrows are merged; a 2-cycle is a ValidationError.
    """
    mult: dict[tuple[int, int], int] = {}
    for s, t, m in orientation.arrows:
        mult[(s, t)] = mult.get((s, t), 0) + m
    for s, t in mult:
        if (t, s) in mult:
            raise ValidationError(f"2-cycle between {s} and {t}")
    arrows = tuple((s, t, m) for (s, t), m in mult.items())
    return b_matrix(Quiver(orientation.cartan.n, frozenset(), arrows))


def acyclic_double(orientation: QuiverOrientation) -> ReducedWord:
    """The squared Coxeter word of an acyclic quiver.

    Vertices must be numbered so arrows go i -> j with i < j, which orients
    the type A path 1 - 2 - ... - n linearly; there the squared word is not
    reduced and the construction is refused.  The empty word squares to
    itself, which is reduced.
    """
    if not orientation.is_acyclic():
        raise ValidationError("quiver has an oriented cycle")
    for s, t, _ in orientation.arrows:
        if s >= t:
            raise ValidationError("arrows must go i -> j with i < j")
    cartan = orientation.cartan
    if cartan.n and cartan.is_type_a():
        raise ValidationError(
            "squared Coxeter word is not reduced for linearly oriented type A"
        )
    return ReducedWord(cartan, tuple(range(cartan.n, 0, -1)) * 2)


def y_dagger(seed: Seed) -> Seed:
    """Mutate once at every vertex in increasing order (coefficient-free use)."""
    for seed in seed.walk(sorted(seed.matrix.mutable)):
        pass
    return seed
