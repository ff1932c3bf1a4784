"""Root- and weight-lattice combinatorics of symmetric Kac-Moody Weyl groups.

Conventions used throughout the package:

* vertices / letters are 1-based,
* a root is a plain tuple of ints in simple-root coordinates,
* a weight is the tuple of its pairings with the simple coroots,
* a word is stored in printed order ``(i_r, ..., i_1)``; position ``k``
  counts from 1 at the *rightmost* letter, so ``letter(1) == i_1``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ValidationError

Root = tuple[int, ...]
# Largest accepted rank: the Cartan matrix is dense, so its size grows as rank^2.
MAX_RANK = 500
# A weight lam as its coroot pairings (lam(alpha_1^vee), ..., lam(alpha_n^vee)).
Weight = tuple[int, ...]
# A crossing link (t, q, letter of t); see ReducedWord.links.
Link = tuple[int, int, int]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _edge_triple(edge, what: str) -> tuple[int, int, int]:
    """(i, j, multiplicity) from an integer pair or triple; pairs count once."""
    if not (
        isinstance(edge, (list, tuple))
        and len(edge) in (2, 3)
        and all(_is_int(x) for x in edge)
    ):
        raise ValidationError(f"bad {what} {edge!r}")
    return (edge[0], edge[1], edge[2] if len(edge) == 3 else 1)


@dataclass(frozen=True)
class CartanMatrix:
    """Symmetric generalized Cartan matrix: c_ii = 2, c_ij = c_ji <= 0.

    Built only by ``from_edges``, whose construction guarantees that shape.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def c(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def q(self, i: int, j: int) -> int:
        """Number of edges between vertices i != j of the Dynkin graph."""
        return -self.c(i, j)

    def adjacent(self, i: int) -> list[tuple[int, int]]:
        """(j, q_ij) for each vertex j joined to i in the Dynkin graph."""
        return [(j, -c) for j, c in enumerate(self.rows[i - 1], start=1) if c < 0]

    @staticmethod
    def from_edges(rank: int, edges: Sequence[Sequence[int]]) -> "CartanMatrix":
        """Build from a graph given as (i, j, multiplicity) triples."""
        if not _is_int(rank) or rank < 0:
            raise ValidationError(f"rank must be a non-negative integer, got {rank!r}")
        if rank > MAX_RANK:
            raise ValidationError(f"rank {rank} exceeds the limit of {MAX_RANK}")
        if not isinstance(edges, (list, tuple)):
            raise ValidationError("edges must be a list")
        rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for edge in edges:
            i, j, m = _edge_triple(edge, "edge")
            if not (1 <= i <= rank and 1 <= j <= rank) or i == j or m < 1:
                raise ValidationError(f"bad edge {edge!r}")
            rows[i - 1][j - 1] -= m
            rows[j - 1][i - 1] -= m
        return CartanMatrix(tuple(tuple(r) for r in rows))

    def is_type_a(self) -> bool:
        """True for the standard path labeling 1 - 2 - ... - n."""
        return all(
            self.q(i, j) == (j == i + 1)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        )


def simple_root(n: int, i: int) -> Root:
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def is_positive_root_vector(d: Root) -> bool:
    return all(x >= 0 for x in d) and any(x > 0 for x in d)


def fundamental_weight(n: int, j: int) -> Weight:
    if not 1 <= j <= n:
        raise ValidationError(f"fundamental weight index {j} out of range")
    return tuple(1 if i == j - 1 else 0 for i in range(n))


def reflect_weight(cartan: CartanMatrix, i: int, lam: Weight) -> Weight:
    """s_i(lam) = lam - lam(alpha_i^vee) alpha_i: h -> h - h_i * (row i of C)."""
    if not 1 <= i <= cartan.n:
        raise ValidationError(f"letter {i} out of range 1..{cartan.n}")
    coef = lam[i - 1]
    return tuple(h - coef * c for h, c in zip(lam, cartan.rows[i - 1]))


def _beta_list(cartan: CartanMatrix, positions: Sequence[int]) -> list[Root]:
    """beta(k) = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) for letters in position order.

    Keeps w = s_{i_1} ... s_{i_{k-1}} as its list of columns, so beta(k) is
    column i_k of w.  Right multiplication by s_i subtracts c_ji times
    column i from each column j, which touches column i and its neighbors.
    """
    n = cartan.n
    for letter in positions:
        if not 1 <= letter <= n:
            raise ValidationError(f"letter {letter} out of range 1..{n}")
    cols = [list(simple_root(n, j)) for j in range(1, n + 1)]
    links = [
        [(j, cartan.c(j + 1, i)) for j in range(n) if cartan.c(j + 1, i)]
        for i in range(1, n + 1)
    ]
    betas: list[Root] = []
    for letter in positions:
        col_i = tuple(cols[letter - 1])
        betas.append(col_i)
        for j, c_ji in links[letter - 1]:
            col_j = cols[j]
            for a in range(n):
                col_j[a] -= c_ji * col_i[a]
    return betas


def is_reduced(cartan: CartanMatrix, printed: Sequence[int]) -> bool:
    """A word is reduced iff every beta(k) is a positive root."""
    d_list = _beta_list(cartan, tuple(reversed(printed)))
    return all(is_positive_root_vector(d) for d in d_list)


class ReducedWord:
    """A validated reduced expression with its index combinatorics.

    ``printed`` is the word as usually displayed, ``(i_r, ..., i_1)``.
    ``letter(k)`` returns i_k with k = 1 at the right end.
    """

    def __init__(self, cartan: CartanMatrix, printed: Sequence[int]):
        if not (
            isinstance(printed, (list, tuple)) and all(_is_int(x) for x in printed)
        ):
            raise ValidationError(f"word must be a list of integer letters, got {printed!r}")
        self.cartan = cartan
        self.printed = tuple(printed)
        self.r = len(self.printed)
        self._pos = tuple(reversed(self.printed))  # _pos[k-1] = i_k
        self.betas: tuple[Root, ...] = tuple(_beta_list(cartan, self._pos))
        if not all(is_positive_root_vector(d) for d in self.betas):
            raise ValidationError(f"word {list(printed)} is not reduced")
        chains: dict[int, list[int]] = {}
        occ = []  # occ[k-1] = k[i_k], the index of k in its chain
        for k, letter in enumerate(self._pos, start=1):
            chain = chains.setdefault(letter, [])
            occ.append(len(chain))
            chain.append(k)
        self._chains = {j: tuple(c) for j, c in chains.items()}
        self._occ = tuple(occ)
        k_minus, k_plus = [0] * self.r, [self.r + 1] * self.r
        for chain in chains.values():
            for low, high in zip(chain, chain[1:]):
                k_plus[low - 1], k_minus[high - 1] = high, low
        self._k_minus, self._k_plus = tuple(k_minus), tuple(k_plus)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ReducedWord({list(self.printed)})"

    def letter(self, k: int) -> int:
        if not 1 <= k <= self.r:
            raise ValidationError(f"position {k} out of range 1..{self.r}")
        return self._pos[k - 1]

    @property
    def positions(self) -> tuple[int, ...]:
        """Letters indexed by position, i.e. (i_1, ..., i_r)."""
        return self._pos

    def chain(self, j: int) -> tuple[int, ...]:
        """Positions carrying letter j, increasing."""
        return self._chains.get(j, ())

    def t(self, j: int) -> int:
        """Number of occurrences of letter j."""
        return len(self._chains.get(j, ()))

    def place(self, k: int) -> tuple[tuple[int, ...], int]:
        """The chain through position k and the index of k in it."""
        return self._chains[self.letter(k)], self._occ[k - 1]

    def occ_index(self, k: int) -> int:
        """k[i_k]: occurrences of the letter of k strictly before k."""
        return self.place(k)[1]

    def links(self, s: int) -> tuple[Link, ...]:
        """The crossing links of s, in increasing t: (t, q_{i_s, i_t}, i_t)
        for the positions t != s with t+ >= s+ > t and q nonzero.

        Such a t is the last occurrence of its letter below s+, so each letter
        joined to i_s gives at most one link; on the chain of s only t = s
        qualifies, and it is not joined to itself.
        """
        self.letter(s)  # range check
        return self._links[s - 1]

    @cached_property
    def _links(self) -> tuple[tuple[Link, ...], ...]:
        """The link table, built on first read in one upward sweep over the
        positions p = 1..r+1: when the sweep reaches p = s+, the last
        occurrence below p of each letter joined to i_s is a link of s."""
        pos, chains = self._pos, self._chains
        adjacent = {j: self.cartan.adjacent(j) for j in chains}
        last: dict[int, int] = {}  # letter -> its last position below the sweep
        table: list[tuple[Link, ...]] = [()] * self.r

        def close(s: int) -> None:
            table[s - 1] = tuple(sorted((last[j], q, j) for j, q in adjacent[pos[s - 1]] if j in last))

        for p, (letter, s) in enumerate(zip(pos, self._k_minus), start=1):
            if s:  # p = s+
                close(s)
            last[letter] = p
        for chain in chains.values():
            close(chain[-1])  # s+ = r + 1
        return tuple(table)

    def firsts(self, k: int) -> tuple[int, ...]:
        """The first position at or above k carrying each letter j, at index
        j (index 0 is unused), or r + 1 when there is none."""
        self.letter(k)  # range check
        return self._firsts[k - 1]

    @cached_property
    def _firsts(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``firsts``, built on first read in one downward sweep;
        the table has r rows of n + 1 entries, the size of ``betas``."""
        row = [self.r + 1] * (self.cartan.n + 1)
        table: list[tuple[int, ...]] = [()] * self.r
        for k in range(self.r, 0, -1):
            row[self._pos[k - 1]] = k
            table[k - 1] = tuple(row)
        return tuple(table)

    def k_minus(self, k: int) -> int:
        """The previous position on the chain of k; 0 at its start."""
        self.letter(k)  # range check
        return self._k_minus[k - 1]

    def k_plus(self, k: int) -> int:
        """The next position on the chain of k; r + 1 at its end."""
        self.letter(k)  # range check
        return self._k_plus[k - 1]

    def k_min(self, k: int) -> int:
        return self.chain(self.letter(k))[0]

    def frozen_positions(self) -> frozenset[int]:
        """Final occurrences of each letter: k with k^+ = r + 1."""
        return frozenset(c[-1] for c in self._chains.values())

    def beta(self, k: int) -> Root:
        return self.betas[k - 1]


def dim_V(word: ReducedWord, k: int) -> Root:
    """w_{i_k} - s_{i_1}...s_{i_k}(w_{i_k}) as a root-lattice vector.

    That is the sum of beta(k') over the positions k' <= k of the chain of k.
    """
    if not 1 <= k <= word.r:
        raise ValidationError(f"position {k} out of range")
    out = [0] * word.cartan.n
    for s in word.chain(word.letter(k)):
        if s > k:
            break
        for a, x in enumerate(word.betas[s - 1]):
            out[a] += x
    return tuple(out)


def b_vector(cartan: CartanMatrix, letters: Sequence[int], lam: Weight) -> tuple[int, ...]:
    """Socle-series multiplicities b_k = -(s_{i_k}...s_{i_r}(lam))(alpha_{i_k}^vee).

    ``letters`` is the word (i_1, ..., i_r) in position order, as
    ``ReducedWord.positions`` gives it.  Requires lam dominant; entries are
    then nonnegative.
    """
    if any(h < 0 for h in lam):
        raise ValidationError(f"{lam} is not dominant")
    out = [0] * len(letters)
    current = lam  # s_{i_{k+1}} ... s_{i_r}(lam), from k = r down to 1
    for k in range(len(letters) - 1, -1, -1):
        out[k] = current[letters[k] - 1]
        current = reflect_weight(cartan, letters[k], current)
    return tuple(out)


@dataclass(frozen=True)
class QuiverOrientation:
    """An orientation of the Dynkin graph: arrows (source, target, multiplicity).

    Built only by ``from_arrows``: its Cartan matrix comes from the same
    arrows, so the arrow count on each pair is q_ij by construction.
    """

    cartan: CartanMatrix
    arrows: tuple[tuple[int, int, int], ...]

    @staticmethod
    def from_arrows(rank: int, arrows: Sequence[Sequence[int]]) -> "QuiverOrientation":
        if not isinstance(arrows, (list, tuple)):
            raise ValidationError("arrows must be a list")
        normalized = [_edge_triple(a, "arrow") for a in arrows]
        cartan = CartanMatrix.from_edges(rank, normalized)
        return QuiverOrientation(cartan, tuple(normalized))

    def is_acyclic(self) -> bool:
        """Kahn's algorithm: remove vertices of in-degree 0 until none is
        left; the arrows are acyclic when every vertex goes."""
        children: dict[int, set[int]] = {i: set() for i in range(1, self.cartan.n + 1)}
        for s, t, _ in self.arrows:
            children[s].add(t)
        indegree = dict.fromkeys(children, 0)
        for targets in children.values():
            for t in targets:
                indegree[t] += 1
        removed = [v for v, d in indegree.items() if not d]
        for v in removed:  # the list grows as vertices reach in-degree 0
            for u in children[v]:
                indegree[u] -= 1
                if not indegree[u]:
                    removed.append(u)
        return len(removed) == len(children)


def sym_form(cartan: CartanMatrix, d: Root, e: Root) -> int:
    """(d,e) = <d,e> + <e,d> = d C e^T; orientation independent."""
    return sum(
        cartan.c(i + 1, j + 1) * d[i] * e[j]
        for i in range(cartan.n)
        for j in range(cartan.n)
    )
