"""Exact multivariate Laurent polynomials over arbitrary-precision integers.

Canonical (serialization and comparison) order is graded lexicographic.
Operations never modify their operands; a result may be an operand itself
(``x ** 1`` is ``x``) or share an operand's term dict.

Packed exponent vectors are the stored form (after Monagan and Pearce).  A
value holds a ``base``, one digit width ``bits`` and ``{key: coef}``:
``key`` holds the shifted exponents ``d_i = e_i - base_i >= 0`` as the
base-``2**bits`` digits ``(D, d_1, ..., d_n)`` of one int, with
``D = d_1 + ... + d_n`` most significant.  Every digit is at most ``D``, and
the top digit stays below ``2**(bits - 1)``, so the top bit of each digit is
free.  ``bits`` is a multiple of 8, at least 8.  Each value is made in one
normal form: ``base`` is the per-variable minimum exponent and ``bits`` the
narrowest width for the top digit, so equal values have equal fields.

While no digit overflows, adding keys adds exponent vectors, and comparing
keys compares ``D`` first and then ``d_1, ..., d_n`` lexicographically,
which is grlex order.  So:

* a product adds the bases and adds keys.  In an integral domain the minima
  add and so do the top digits, whose sum sets the product's width.
  ``x * x`` forms each unordered pair of terms once;
* a single-term value is key 0 over its base, so multiplying or dividing by
  it moves the base and scales the coefficients;
* a sum (also the numerator of a substitution, one operand per term)
  re-bases each operand to the componentwise minimum of the bases by
  adding one packed offset to each key.  Only a key that cancels can raise
  a minimum or lower the top, so a sum in which a key cancels is built again
  by the constructor;
* a key moves to a wider width digit by digit: widths are whole bytes, so
  each byte keeps its place within its digit, and that place over all the
  keys' little-endian bytes is one strided slice;
* over their bases both sides of an exact division are honest polynomials
  and so is the quotient, so grlex long division applies at the numerator's
  width.  The quotient's base and top are the numerator's minus the
  divisor's; only a top that fits a narrower width sends it through the
  constructor again.  Every
  remainder term has total degree at most the numerator's top digit,
  because quotient terms are only emitted for ``lead(rem) / lead(den)`` and
  ``lead(den)`` has the divisor's top degree; a divisor of higher degree is
  rejected up front.  ``(r | guard) - l`` borrows into no guard bit exactly
  when every digit of ``l`` is at most that of ``r``, which is the monomial
  divisibility test.  The division walks the numerator's keys, sorted once,
  largest first; a key that a product adds and the numerator lacks goes on
  a max-heap, and each step takes the larger of the two heads.  When the
  divisor and the quotient have positive coefficients, as cluster variables
  do, no product adds such a key and the heap stays empty.

Exponent tuples are built only where they are read: the constructor packs
them once (``_pack``), and ``terms`` and ``sorted_terms`` unpack on each
read (``_unpack``).
"""
from __future__ import annotations

from functools import cache, reduce
from heapq import heappop, heappush
from operator import add, lshift, mul, sub
from typing import Iterable, Mapping, Sequence

from .cartan import _is_int
from .errors import (
    NotDivisibleError,
    NotPolynomialAfterSubstitutionError,
    TermLimitError,
    ValidationError,
)

# Most term pairs one product may form; at about 0.4 us a pair that is a few
# seconds of work.  Checked before the first pair is formed.
MAX_TERM_PAIRS = 10**7


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


def _width(top: int) -> int:
    """Digit width for a top digit ``top``: one free bit, a multiple of 8."""
    return (top.bit_length() + 8) & -8


def _key(digits: Sequence[int], bits: int) -> int:
    """The packed key of the shifted exponents ``digits`` (all >= 0)."""
    n = len(digits)
    shifts = range((n - 1) * bits, -1, -bits)
    return sum(map(lshift, digits, shifts), sum(digits) << n * bits)


def _pack(
    terms: Mapping[tuple[int, ...], int], base: Sequence[int], bits: int
) -> dict[int, int]:
    """``{exp: coef}`` keyed by the packed digits of ``exp - base``."""
    return {_key(list(map(sub, exp, base)), bits): coef for exp, coef in terms.items()}


def _widened(packed: dict[int, int], digits: int, bits: int, wide: int) -> dict[int, int]:
    """``packed``, whose keys have ``digits`` digits of ``bits`` bits, with
    each digit moved to ``wide`` bits.

    Widths are whole bytes, so the keys' little-endian bytes laid end to end
    move byte ``j`` of every digit by one strided slice.
    """
    old, new = bits >> 3, wide >> 3
    raw = b"".join([key.to_bytes(digits * old, "little") for key in packed])
    out = bytearray(len(raw) // old * new)
    for j in range(old):
        out[j::new] = raw[j::old]
    view, size = memoryview(out), digits * new
    keys = [int.from_bytes(view[i : i + size], "little") for i in range(0, len(out), size)]
    return dict(zip(keys, packed.values()))


def _unpack(
    items: Iterable[tuple[int, int]], base: Sequence[int], bits: int
) -> list[tuple[tuple[int, ...], int]]:
    """``(exp, coef)`` for each ``(key, coef)`` of ``items``, in their order."""
    shifts = range((len(base) - 1) * bits, -1, -bits)
    mask = (1 << bits) - 1
    return [
        (tuple([(key >> s & mask) + b for s, b in zip(shifts, base)]), coef)
        for key, coef in items
    ]


class LaurentPoly:
    """Immutable Laurent polynomial; no zero coefficients are stored."""

    __slots__ = ("vars", "_base", "_bits", "_packed")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int]):
        width = len(table)
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in terms.items():
            if len(exp) != width:
                raise ValidationError("exponent tuple width mismatch")
            if coef:
                clean[tuple(exp)] = coef
        base = tuple(map(min, zip(*clean))) if clean else (0,) * width
        top = max(map(sum, clean)) - sum(base) if clean else 0
        self.vars = table
        self._base = base
        self._bits = _width(top)
        self._packed = _pack(clean, base, self._bits)

    @staticmethod
    def _make(
        table: VarTable, base: tuple[int, ...], bits: int, packed: dict[int, int]
    ) -> "LaurentPoly":
        """Wrap packed terms that are already in normal form: no zero
        coefficient, ``base`` the per-variable minimum, ``bits`` the
        narrowest width for the top digit, and an empty dict only over base 0
        at width 8, as the constructor builds zero."""
        out = object.__new__(LaurentPoly)
        out.vars = table
        out._base = base
        out._bits = bits
        out._packed = packed
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def one(table: VarTable) -> "LaurentPoly":
        return LaurentPoly._make(table, (0,) * len(table), 8, {0: 1})

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
        return LaurentPoly._make(table, tuple(exp), 8, {0: 1})

    # -- basic structure ------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """``{exponent tuple: coef}``, unpacked on each read."""
        return dict(_unpack(self._packed.items(), self._base, self._bits))

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self._bits == other._bits
            and self._base == other._base
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((self.vars, self._base, frozenset(self._packed.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # key order is grlex order
        return _unpack(sorted(self._packed.items()), self._base, self._bits)

    def _check(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValidationError("operands use different variable tables")

    def _rebased(self, base: tuple[int, ...], bits: int) -> dict[int, int]:
        """The keys over ``base``, at most ``self._base`` everywhere, and
        ``bits``, no narrower than ``self._bits``.

        The result is ``self._packed`` itself when nothing moves.
        """
        packed = self._packed
        if bits != self._bits:
            packed = _widened(packed, len(self.vars) + 1, self._bits, bits)
        if base == self._base:
            return packed
        offset = _key(list(map(sub, self._base, base)), bits)
        return {key + offset: coef for key, coef in packed.items()}

    def _top(self) -> int:
        """The largest shifted total degree ``D`` over the terms."""
        return max(self._packed) >> len(self.vars) * self._bits

    # -- arithmetic -----------------------------------------------------

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """``self + sign * other``."""
        self._check(other)
        if not other._packed:
            return self
        if not self._packed:
            return other if sign == 1 else -other
        return self._sum([other], sign)

    def _sum(self, others: Sequence["LaurentPoly"], sign: int) -> "LaurentPoly":
        """``self + sign * sum(others)`` over the componentwise minimum of the
        bases; ``self`` and every other value are nonzero."""
        base, top = self._base, self._top() + sum(self._base)
        for x in others:
            base = tuple(map(min, base, x._base))
            top = max(top, x._top() + sum(x._base))
        # no operand's top lies above ``top``, so none needs a wider width
        bits = _width(top - sum(base))
        out = self._rebased(base, bits)
        if out is self._packed:
            out = dict(out)
        cancelled = False
        get = out.get
        for x in others:
            for key, coef in x._rebased(base, bits).items():
                s = get(key, 0) + sign * coef
                if s:
                    out[key] = s
                else:
                    del out[key]
                    cancelled = True
        if cancelled:
            # a minimum may have risen or the top narrowed: normalize again
            return LaurentPoly(self.vars, dict(_unpack(out.items(), base, bits)))
        return LaurentPoly._make(self.vars, base, bits, out)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(
            self.vars,
            self._base,
            self._bits,
            {key: -coef for key, coef in self._packed.items()},
        )

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        big, small = self, other
        if len(big._packed) < len(small._packed):
            big, small = small, big
        if not small._packed:
            return LaurentPoly(self.vars, {})
        if len(small._packed) == 1:
            c0 = small._packed[0]
            packed = big._packed
            if c0 != 1:
                packed = {key: coef * c0 for key, coef in packed.items()}
            base = tuple(map(add, big._base, small._base))
            return LaurentPoly._make(self.vars, base, big._bits, packed)
        n, m = len(big._packed), len(small._packed)
        square = big is small
        pairs = n * (n + 1) // 2 if square else n * m
        if pairs > MAX_TERM_PAIRS:
            raise TermLimitError(
                f"product of {n} by {m} terms forms {pairs} term pairs, "
                f"over the limit of {MAX_TERM_PAIRS}"
            )
        base = tuple(map(add, big._base, small._base))
        bits = _width(big._top() + small._top())
        items = list(big._rebased(big._base, bits).items())
        out: dict[int, int] = {}
        get = out.get
        if square:
            # the pair (i, j) and its mirror (j, i) at once
            for i, (k1, c1) in enumerate(items):
                key = k1 << 1
                out[key] = get(key, 0) + c1 * c1
                c1 <<= 1
                for k2, c2 in items[i + 1 :]:
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
        else:
            for k1, c1 in small._rebased(small._base, bits).items():
                for k2, c2 in items:
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
        if not all(out.values()):
            out = {key: coef for key, coef in out.items() if coef}
        return LaurentPoly._make(self.vars, base, bits, out)

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
        return self._base

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises NotDivisibleError when no Laurent quotient exists."""
        self._check(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly(self.vars, {})
        base = tuple(map(sub, self._base, other._base))
        if len(other._packed) == 1:
            # monomials are units up to their coefficient: move the base
            c0 = other._packed[0]
            packed = self._packed
            if c0 != 1:
                if any(c % c0 for c in packed.values()):
                    raise NotDivisibleError("no exact Laurent quotient")
                packed = {key: c // c0 for key, c in packed.items()}
            return LaurentPoly._make(self.vars, base, self._bits, packed)
        # grlex long division over both bases at the numerator's width, which
        # a divisor of no higher top degree fits
        top, den_top = self._top(), other._top()
        if den_top > top:
            raise NotDivisibleError("no exact Laurent quotient")
        bits = self._bits
        shift = len(self.vars) * bits
        rem = dict(self._packed)
        den_keys = sorted(other._rebased(other._base, bits).items(), reverse=True)
        guard = sum(1 << (s + bits - 1) for s in range(0, shift + bits, bits))
        lead, lead_coef = den_keys[0]
        tail = [(k, -c) for k, c in den_keys[1:]]
        # ``keys`` holds the numerator's keys in increasing order and is taken
        # from the end; a key that a product adds and that is not in ``rem``
        # goes on the max-heap ``side``, and each step takes the larger head.
        # A key leaves ``rem`` when taken, and a coefficient that cancels to 0
        # stays until then
        keys = sorted(rem)
        side: list[int] = []
        quot: dict[int, int] = {}
        while keys or side:
            if side and (not keys or -side[0] > keys[-1]):
                r_key = -heappop(side)
            else:
                r_key = keys.pop()
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
                    heappush(side, -k)
                else:
                    rem[k] = old + q_coef * c
        # the quotient's top is the difference of the tops
        if _width(top - den_top) < bits:
            return LaurentPoly(self.vars, dict(_unpack(quot.items(), base, bits)))
        return LaurentPoly._make(self.vars, base, bits, quot)

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
        terms = self.terms
        cols = list(zip(*terms))
        for name, col in zip(self.vars.names, cols):
            if any(col) and name not in images:
                raise ValidationError(f"no image for variable {name}")
        target = tables.pop() if tables else self.vars
        # a variable without an image does not occur: its exponents are all 0
        img_list = [images.get(name) for name in self.vars.names]
        shifts = [max(0, -min(col)) for col in cols]
        power = cache(lambda i, e: img_list[i] ** e)
        zero = (0,) * len(target)
        values = []
        for exp, coef in terms.items():
            # the coefficient is the first factor: it scales one image power
            factors = [LaurentPoly._make(target, zero, 8, {0: coef})]
            factors += [power(i, e) for i, e in enumerate(map(add, exp, shifts)) if e]
            term = LaurentPoly.product(target, factors)
            if term:
                values.append(term)
        numerator = values[0]._sum(values[1:], 1) if values else LaurentPoly(target, {})
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
        if not self._packed:
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
        if not self._packed:
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
