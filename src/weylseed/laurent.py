"""Exact multivariate Laurent polynomials over arbitrary-precision integers.

Terms are kept in a dict keyed by exponent tuples; canonical (serialization
and comparison) order is graded lexicographic.  Operations never modify
their operands; a result may be an operand itself (``x ** 1`` is ``x``).

Packed monomials.  ``__mul__`` and ``exact_div`` work on monomials packed
into single ints (Kronecker substitution).  Each operation first shifts its
operands by their per-variable minimum exponents, so every shifted exponent
``d_i`` is >= 0, and packs ``(D, d_1, ..., d_n)`` with ``D = d_1 + ... + d_n``
as the base-``2**bits`` digits of one int, ``D`` most significant.  ``bits``
is chosen per call so that every digit the operation can reach is below
``2**(bits - 1)``:

* a product's digits are bounded by its total degree, at most the sum of the
  operands' shifted total degrees;
* every term of a long-division remainder has total degree at most the
  shifted numerator's, because quotient terms are only emitted for
  ``lead(rem) / lead(den)`` and ``lead(den)`` has the divisor's top degree;
  a divisor of higher degree than the numerator is rejected up front.

While no digit overflows, adding two packed ints adds the exponent vectors,
and comparing packed ints compares ``D`` first and then ``d_1, ..., d_n``
lexicographically, which is exactly the grlex order of ``_grlex_key``.  The
top bit of each digit is a guard: ``(r | guard) - l`` borrows into no guard
bit exactly when every digit of ``l`` is at most that of ``r``, which is the
monomial divisibility test of long division.  Packing stays inside
``_pack``/``_unpack``; ``terms`` is always keyed by exponent tuples.
"""
from __future__ import annotations

from functools import cache, reduce
from heapq import heapify, heappop, heappush
from operator import add, lshift, mul, sub
from typing import Iterable, Mapping, Sequence

from .cartan import _is_int
from .errors import NotDivisibleError, NotPolynomialAfterSubstitutionError, ValidationError


class VarTable:
    """Ordered, unique variable names shared by a family of polynomials."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValidationError("variable names must be unique")
        self._index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    @staticmethod
    def indexed(prefix: str, count: int) -> "VarTable":
        return VarTable(tuple(f"{prefix}{i}" for i in range(1, count + 1)))


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


def _pack(
    terms: Mapping[tuple[int, ...], int], base: Sequence[int], bits: int
) -> dict[int, int]:
    """``{exp: coef}`` keyed by the packed digits ``(D, exp - base)``."""
    width = len(base)
    shifts = range((width - 1) * bits, -1, -bits)
    total_shift = width * bits
    out: dict[int, int] = {}
    for exp, coef in terms.items():
        d = list(map(sub, exp, base))
        out[sum(map(lshift, d, shifts), sum(d) << total_shift)] = coef
    return out


def _unpack(
    packed: Mapping[int, int], base: Sequence[int], bits: int
) -> dict[tuple[int, ...], int]:
    """Inverse of ``_pack`` (``D`` is dropped), without zero coefficients."""
    shifts = range((len(base) - 1) * bits, -1, -bits)
    mask = (1 << bits) - 1
    return {
        tuple([(key >> s & mask) + b for s, b in zip(shifts, base)]): coef
        for key, coef in packed.items()
        if coef
    }


class LaurentPoly:
    """Immutable Laurent polynomial; no zero coefficients are stored."""

    __slots__ = ("vars", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int]):
        self.vars = table
        width = len(table)
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in terms.items():
            if len(exp) != width:
                raise ValidationError("exponent tuple width mismatch")
            if coef:
                clean[tuple(exp)] = coef
        self.terms = clean

    @staticmethod
    def _of(table: VarTable, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """Wrap ``terms`` as is: tuple keys of the table's width, no zeros."""
        out = object.__new__(LaurentPoly)
        out.vars = table
        out.terms = terms
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "LaurentPoly":
        return LaurentPoly(table, {})

    @staticmethod
    def one(table: VarTable) -> "LaurentPoly":
        return LaurentPoly(table, {(0,) * len(table): 1})

    @staticmethod
    def product(table: VarTable, factors: Iterable["LaurentPoly"]) -> "LaurentPoly":
        """The product of ``factors`` in order, one over ``table`` when empty.

        The first factor is the starting value, so nothing is multiplied by one.
        """
        factors = iter(factors)
        first = next(factors, None)
        if first is None:
            return LaurentPoly.one(table)
        return reduce(mul, factors, first)

    @staticmethod
    def var(table: VarTable, name: str) -> "LaurentPoly":
        exp = [0] * len(table)
        exp[table.index(name)] = 1
        return LaurentPoly(table, {tuple(exp): 1})

    # -- basic structure ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    def _check(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValidationError("operands use different variable tables")

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            s = out.get(exp, 0) + coef
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPoly(self.vars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        big, small = self, other
        if len(big.terms) < len(small.terms):
            big, small = small, big
        if not small.terms:
            return LaurentPoly.zero(self.vars)
        if len(small.terms) == 1:
            ((e0, c0),) = small.terms.items()
            return LaurentPoly._of(
                self.vars,
                {tuple(map(add, e, e0)): c * c0 for e, c in big.terms.items()},
            )
        mb, ms = big.min_exponents(), small.min_exponents()
        top = max(map(sum, big.terms)) - sum(mb) + max(map(sum, small.terms)) - sum(ms)
        bits = top.bit_length() + 1
        packed_small = list(_pack(small.terms, ms, bits).items())
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in _pack(big.terms, mb, bits).items():
            for k2, c2 in packed_small:
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        return LaurentPoly._of(self.vars, _unpack(out, tuple(map(add, mb, ms)), bits))

    def __pow__(self, k: int) -> "LaurentPoly":
        """Non-negative powers only; ``x ** 0`` is one."""
        if k < 0:
            raise ValidationError(f"negative power {k}")
        if k == 0:
            return LaurentPoly.one(self.vars)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    def min_exponents(self) -> tuple[int, ...]:
        """Per-variable minimum exponent over all terms (0 for the zero poly)."""
        if not self.terms:
            return (0,) * len(self.vars)
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises NotDivisibleError when no Laurent quotient exists."""
        self._check(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly.zero(self.vars)
        if len(other.terms) == 1:
            # monomials are units up to their coefficient: shift every term
            ((e0, c0),) = other.terms.items()
            if any(c % c0 for c in self.terms.values()):
                raise NotDivisibleError("no exact Laurent quotient")
            return LaurentPoly._of(
                self.vars,
                {tuple(map(sub, e, e0)): c // c0 for e, c in self.terms.items()},
            )
        # Shifted by their minimum exponents both sides are honest polynomials
        # and so is the quotient, so grlex long division applies.
        sa, sb = self.min_exponents(), other.min_exponents()
        top = max(map(sum, self.terms)) - sum(sa)
        if max(map(sum, other.terms)) - sum(sb) > top:
            raise NotDivisibleError("no exact Laurent quotient")
        bits = top.bit_length() + 1
        guard = sum(1 << (s + bits - 1) for s in range(0, (len(sa) + 1) * bits, bits))
        den = sorted(_pack(other.terms, sb, bits).items(), reverse=True)
        lead, lead_coef = den[0]
        tail = [(k, -c) for k, c in den[1:]]
        # max-heap of the remainder's keys; a key leaves the heap and ``rem``
        # together, and a coefficient that cancels to 0 stays until popped
        rem = _pack(self.terms, sa, bits)
        heap = [-k for k in rem]
        heapify(heap)
        quot: dict[int, int] = {}
        while heap:
            r_key = -heappop(heap)
            r_coef = rem.pop(r_key)
            if not r_coef:
                continue
            q_key = (r_key | guard) - lead
            if q_key & guard != guard:
                raise NotDivisibleError("no exact Laurent quotient")
            q_coef, r = divmod(r_coef, lead_coef)
            if r:
                raise NotDivisibleError("no exact Laurent quotient")
            q_key ^= guard
            quot[q_key] = q_coef
            for k, c in tail:
                k += q_key
                old = rem.get(k)
                if old is None:
                    rem[k] = q_coef * c
                    heappush(heap, -k)
                else:
                    rem[k] = old + q_coef * c
        return LaurentPoly._of(self.vars, _unpack(quot, tuple(map(sub, sa, sb)), bits))

    # -- substitution and grading ---------------------------------------

    def substitute(self, images: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Replace variables by Laurent polynomial images, exactly.

        Every variable that occurs needs an image.  Negative exponents are
        cleared by multiplying through with the matching image powers, and
        the value is the exact quotient of the two sides; when there is none
        this raises NotPolynomialAfterSubstitutionError.  The value lives over
        the images' variable table, also when the polynomial is zero.
        """
        tables = {img.vars for img in images.values()}
        if len(tables) > 1:
            raise ValidationError("images use different variable tables")
        cols = list(zip(*self.terms))
        for name, col in zip(self.vars.names, cols):
            if any(col) and name not in images:
                raise ValidationError(f"no image for variable {name}")
        target = tables.pop() if tables else self.vars
        # a variable without an image does not occur: its exponents are all 0
        img_list = [images.get(name) for name in self.vars.names]
        shifts = [max(0, -min(col)) for col in cols]
        power = cache(lambda i, e: img_list[i] ** e)
        acc: dict[tuple[int, ...], int] = {}
        for exp, coef in self.terms.items():
            shifted = map(add, exp, shifts)
            term = LaurentPoly.product(
                target, (power(i, e) for i, e in enumerate(shifted) if e)
            )
            for e, c in term.terms.items():
                acc[e] = acc.get(e, 0) + coef * c
        numerator = LaurentPoly(target, acc)
        if not any(shifts):
            return numerator
        denominator = LaurentPoly.product(
            target, (img**s for img, s in zip(img_list, shifts) if s)
        )
        if not denominator:
            raise NotPolynomialAfterSubstitutionError(
                "an inverted variable has the zero polynomial as image"
            )
        try:
            return numerator.exact_div(denominator)
        except NotDivisibleError as exc:
            raise NotPolynomialAfterSubstitutionError(
                "substituted value is not a Laurent polynomial"
            ) from exc

    def multidegree(
        self, grading: Mapping[str, Sequence[int]]
    ) -> tuple[int, ...] | None:
        """Common graded degree of all terms, or None when inhomogeneous."""
        if not self.terms:
            return None
        degs = [tuple(grading[name]) for name in self.vars.names]
        width = len(next(iter(degs)))
        result: tuple[int, ...] | None = None
        for exp in self.terms:
            d = tuple(
                sum(e * degs[i][j] for i, e in enumerate(exp)) for j in range(width)
            )
            if result is None:
                result = d
            elif result != d:
                return None
        return result

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars.names),
            "terms": [
                {"exp": list(exp), "coef": str(coef)}
                for exp, coef in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(doc: Mapping) -> "LaurentPoly":
        """Build from ``to_json`` output; any malformed document is a ValidationError."""
        if not (
            isinstance(doc, Mapping)
            and isinstance(doc.get("vars"), list)
            and all(isinstance(name, str) for name in doc["vars"])
            and isinstance(doc.get("terms"), list)
        ):
            raise ValidationError("Laurent polynomial needs 'vars' (names) and 'terms' lists")
        table = VarTable(doc["vars"])
        terms = {}
        for item in doc["terms"]:
            exp = item.get("exp") if isinstance(item, Mapping) else None
            coef = item.get("coef") if isinstance(item, Mapping) else None
            try:
                coef = int(coef) if isinstance(coef, str) else coef
            except ValueError:
                coef = None
            if not (
                isinstance(exp, list)
                and len(exp) == len(table)
                and all(_is_int(e) for e in exp)
                and _is_int(coef)
            ):
                raise ValidationError(f"bad Laurent term {item!r}")
            if tuple(exp) in terms:
                raise ValidationError(f"repeated Laurent exponent {exp}; merge the terms")
            terms[tuple(exp)] = coef
        return LaurentPoly(table, terms)

    def __repr__(self) -> str:  # pragma: no cover
        if not self.terms:
            return "0"
        bits = []
        for exp, coef in self.sorted_terms():
            mono = "*".join(
                f"{n}^{e}" if e != 1 else n
                for n, e in zip(self.vars.names, exp)
                if e
            )
            bits.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)
