"""Independent type-A oracle: exact minors of unitriangular products, and the
identification of evaluation functions with those minors.

The product of the elementary factors x_{a_1}(t_1) x_{a_2}(t_2) ... is never
built.  Its minors with one row set I are carried along the word instead,
starting from the identity ({I: 1}).  Right-multiplying by x_a(t) adds t times
column a to column a + 1, so by Cauchy-Binet on the i-th exterior power it
adds t * Delta_{I,K} to Delta_{I,K'} for every column set K that holds a but
not a + 1, where K' is K with a replaced by a + 1.  Every other minor keeps
its value.  This is the non-crossing path expansion of Lindstroem and
Gessel-Viennot that Berenstein, Fomin and Zelevinsky use for chamber minors:
it never subtracts or divides, and one pass gives every column set at once.
"""
from __future__ import annotations

from typing import Sequence

from .cartan import ReducedWord
from .errors import MismatchError, ValidationError, located
from .laurent import LaurentPoly, VarTable
from .words import g_V, phi_eval, to_word


def x_product(
    minors: dict[tuple[int, ...], LaurentPoly], letter: int, t: LaurentPoly
) -> None:
    """Right-multiply by the factor x_letter(t), in place.

    ``minors`` maps increasing column sets to the nonzero minors of one row
    set.  A source holds ``letter`` but not ``letter + 1`` and a target the
    reverse, so no source is a target and one snapshot serves every update.
    """
    for cols, value in list(minors.items()):
        if letter in cols and letter + 1 not in cols:
            j = cols.index(letter)
            target = cols[:j] + (letter + 1,) + cols[j + 1 :]
            term = value * t
            old = minors.get(target)
            minors[target] = term if old is None else old + term


def minor(
    letters: Sequence[int], var_names: Sequence[str], rows: Sequence[int]
) -> dict[tuple[int, ...], LaurentPoly]:
    """Every nonzero minor with the increasing row set ``rows`` (1-based) of
    the product of x_{letters[q]}(var_names[q]), leftmost factor first, keyed
    by increasing column set."""
    table = VarTable(var_names)
    minors = {tuple(rows): LaurentPoly.one(table)}
    for letter, name in zip(letters, var_names):
        x_product(minors, letter, LaurentPoly.var(table, name))
    return minors


def minor_spec_for_Vk(word: ReducedWord, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row set {1..i_k} and its image under the prefix permutation
    s_{i_1} ... s_{i_k}, whose rightmost letter acts first."""
    if not word.cartan.is_type_a():
        raise ValidationError("minor specifications require the standard path labels")
    perm = list(range(word.cartan.n + 2))
    for a in word.positions[:k]:
        perm[a], perm[a + 1] = perm[a + 1], perm[a]
    rows = tuple(range(1, word.letter(k) + 1))
    return rows, tuple(sorted(perm[x] for x in rows))


def cross_validate(
    word: ReducedWord,
) -> list[tuple[tuple[int, ...], tuple[int, ...], LaurentPoly]]:
    """Check the evaluation function of every position against its symbolic minor.

    The evaluation pattern is the whole word, leftmost letter i_r with
    variable t_r down to i_1 with t_1; the minors are propagated once per
    distinct row set.  Returns (rows, cols, common polynomial) for k = 1..r.
    """
    pattern = to_word(word.printed)
    var_names = [f"t{q}" for q in range(word.r, 0, -1)]
    specs = [minor_spec_for_Vk(word, k) for k in range(1, word.r + 1)]
    row_sets = {rows for rows, _ in specs}
    passes = {rows: minor(word.printed, var_names, rows) for rows in row_sets}
    out = []
    for k, (rows, cols) in enumerate(specs, start=1):
        lhs = passes[rows].get(cols)
        with located(f"position {k}"):
            rhs = phi_eval(g_V(word, k, pattern), pattern, var_names)
        if lhs != rhs:
            raise MismatchError(
                f"position {k}: minor with rows {list(rows)} and columns "
                f"{list(cols)} ({len(lhs.terms) if lhs else 0} terms) differs "
                f"from its evaluation ({len(rhs.terms)} terms)"
            )
        out.append((rows, cols, lhs))
    return out
