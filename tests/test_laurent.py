import contextlib
import json
import sys
from heapq import heapify, heappop, heappush
from operator import add, lshift, sub

import pytest
from hypothesis import given, settings, strategies as st

from weylseed import intervals, laurent, quiver
from weylseed.cartan import ReducedWord
from weylseed.cli import main
from weylseed.errors import (
    NotDivisibleError,
    NotPolynomialAfterSubstitutionError,
    TermLimitError,
    ValidationError,
)
from weylseed.intervals import run_mu_i
from weylseed.laurent import LaurentPoly, VarTable
from weylseed.quiver import ExchangeMatrix, Seed

T2 = VarTable(("y1", "y2"))
T3 = VarTable(("y1", "y2", "y3"))


def poly(table, terms):
    return LaurentPoly(table, terms)


def scale(p, c):
    return LaurentPoly(p.vars, {e: c * v for e, v in p.terms.items()})


def small_polys(table=T2, min_exp=-2, max_exp=3, max_size=4):
    width = len(table)
    exps = st.tuples(*([st.integers(min_exp, max_exp)] * width))
    return st.dictionaries(exps, st.integers(-6, 6), max_size=max_size).map(
        lambda d: LaurentPoly(table, d)
    )


def monomials(table=T2, min_exp=-2, max_exp=3):
    return small_polys(table, min_exp, max_exp, max_size=1).filter(bool)


# degrees in the hundreds: packed digits several bits wide
wide_polys = small_polys(T3, -40, 90, max_size=5)
# powers whose top degree passes 127, so products on the way widen 8-bit digits
grown_polys = st.tuples(small_polys(T2, -3, 4, 3), st.integers(4, 12)).map(
    lambda t: t[0] ** t[1]
)


def test_mul_unit_inverse():
    y1 = LaurentPoly.var(T2, "y1")
    y1_inv = LaurentPoly(T2, {(-1, 0): 1})
    assert y1 * y1_inv == LaurentPoly.one(T2)


def test_square_of_sum():
    y1, y2 = LaurentPoly.var(T2, "y1"), LaurentPoly.var(T2, "y2")
    sq = (y1 + y2) ** 2
    assert sq == poly(T2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_table_mismatch():
    with pytest.raises(ValidationError, match="operands use different variable tables"):
        LaurentPoly.var(T2, "y1") + LaurentPoly.var(T3, "y1")


@settings(max_examples=80)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def naive_mul(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return LaurentPoly(a.vars, out)


@settings(max_examples=100)
@given(
    st.one_of(st.tuples(small_polys(), small_polys()), st.tuples(wide_polys, wide_polys))
)
def test_mul_against_convolution_oracle(pair):
    a, b = pair
    assert a * b == naive_mul(a, b)


def one_seeded_product(table, factors):
    """The former product loop: start from one and multiply each factor in."""
    acc = LaurentPoly.one(table)
    for f in factors:
        acc = acc * f
    return acc


@settings(max_examples=80)
@given(
    st.one_of(
        st.lists(st.one_of(small_polys(), st.just(LaurentPoly.one(T2))), max_size=4).map(
            lambda fs: (T2, fs)
        ),
        st.lists(wide_polys, max_size=3).map(lambda fs: (T3, fs)),
    )
)
def test_product_against_one_seeded_loop(case):
    table, factors = case
    expected = one_seeded_product(table, factors)
    assert LaurentPoly.product(table, factors) == expected
    assert LaurentPoly.product(table, iter(factors)) == expected


def test_product_of_no_factors_and_of_one():
    assert LaurentPoly.product(T3, []) == LaurentPoly.one(T3)
    x = LaurentPoly.var(T2, "y1") + LaurentPoly(T2, {(0, -1): 1})
    one = LaurentPoly.one(T2)
    assert LaurentPoly.product(T2, [x]) is x
    assert LaurentPoly.product(T2, [one, x]) == x == LaurentPoly.product(T2, [x, one])
    assert LaurentPoly.product(T2, [one]) == one


@settings(max_examples=60)
@given(st.one_of(small_polys(), monomials()))
def test_pow_against_repeated_multiplication(x):
    expected = LaurentPoly.one(T2)
    for k in range(6):
        assert x ** k == expected
        expected = expected * x
    assert x ** 1 is x


@pytest.fixture
def mutate_products(monkeypatch):
    """Operand pairs of every ``LaurentPoly.__mul__`` call made inside the
    exchange rule ``quiver.exchange``, rebound in every module that holds it."""
    pairs, depth = [], [0]
    mul, exchange = LaurentPoly.__mul__, quiver.exchange

    def recording_mul(a, b):
        if depth[0]:
            pairs.append((a, b))
        return mul(a, b)

    def counting_exchange(*args):
        depth[0] += 1
        try:
            return exchange(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(LaurentPoly, "__mul__", recording_mul)
    holders = [
        module
        for name, module in sys.modules.items()
        if name.startswith("weylseed.") and getattr(module, "exchange", None) is exchange
    ]
    assert {quiver, intervals} <= set(holders)
    for module in holders:
        monkeypatch.setattr(module, "exchange", counting_exchange)
    return pairs


def is_one(p):
    return p == LaurentPoly.one(p.vars)


def test_pentagon_mutations_multiply_nothing(mutate_products):
    seed = Seed.initial(ExchangeMatrix(2, (1, 2), [[0, -1], [1, 0]]))
    *_, end = seed.walk([1, 2] * 5)
    assert end.cluster == seed.cluster
    # each exchange monomial is one variable or empty: no product to form
    assert mutate_products == []


def test_mu_i_mutations_never_multiply_by_one(mutate_products, a3):
    report = run_mu_i(ReducedWord(a3, (2, 3, 1, 2, 3, 1)))
    assert mutate_products
    assert [pair for pair in mutate_products if is_one(pair[0]) or is_one(pair[1])] == []


def test_specialized_mutate_never_multiplies_by_one(monkeypatch, capsys):
    """``mutate --mode specialized`` sets the frozen variables to one by
    projecting their exponents, so it multiplies nothing by one."""
    operands = []
    mul = LaurentPoly.__mul__

    def recording_mul(a, b):
        operands.extend((a, b))
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", recording_mul)
    pbw6 = {"rank": 3, "edges": [[1, 2, 1], [2, 3, 1]], "word": [2, 3, 1, 2, 3, 1]}
    a4 = {"rank": 4, "edges": [[1, 2, 1], [2, 3, 1], [3, 4, 1]], "word": [3, 4, 2, 1, 3, 4, 2, 1]}
    for doc in (dict(pbw6, path=[3, 2]), dict(a4, path=[1, 2, 3, 1]), pbw6):
        assert main(["mutate", "--inline", json.dumps(doc), "--mode", "specialized"]) == 0
    capsys.readouterr()
    assert operands and [x for x in operands if is_one(x)] == []


def long_division(a, b):
    """Grlex long division that rescans the remainder for every quotient term."""
    if not a:
        return a
    sa, sb = a.min_exponents(), b.min_exponents()
    grlex = lambda t: (sum(t[0]), t[0])  # noqa: E731
    rem = {tuple(x - m for x, m in zip(e, sa)): c for e, c in a.terms.items()}
    den = {tuple(x - m for x, m in zip(e, sb)): c for e, c in b.terms.items()}
    lead_exp, lead_coef = max(den.items(), key=grlex)
    quot = {}
    while rem:
        r_exp, r_coef = max(rem.items(), key=grlex)
        q_exp = tuple(x - y for x, y in zip(r_exp, lead_exp))
        if any(x < 0 for x in q_exp) or r_coef % lead_coef:
            raise NotDivisibleError("no exact Laurent quotient")
        q_coef = r_coef // lead_coef
        quot[q_exp] = q_coef
        for e, c in den.items():
            key = tuple(x + y for x, y in zip(q_exp, e))
            rem[key] = rem.get(key, 0) - q_coef * c
            if not rem[key]:
                del rem[key]
    offset = tuple(x - y for x, y in zip(sa, sb))
    return LaurentPoly(
        a.vars, {tuple(x + o for x, o in zip(e, offset)): c for e, c in quot.items()}
    )


def bump_lead(p, c):
    """``p`` plus ``c`` times its grlex-leading monomial."""
    if not p:
        return p
    lead = max(p.terms, key=lambda e: (sum(e), e))
    return p + LaurentPoly(p.vars, {lead: c})


def division_outcome(divide, a, b):
    try:
        return divide(a, b)
    except NotDivisibleError:
        return NotDivisibleError


@settings(max_examples=60)
@given(small_polys(), small_polys())
def test_exact_div_roundtrip(a, b):
    if not b:
        return
    assert (a * b).exact_div(b) == a


@settings(max_examples=300)
@given(
    st.one_of(
        st.tuples(small_polys(), small_polys()),
        st.tuples(small_polys(max_size=8), monomials()),
        st.tuples(small_polys(max_size=8), monomials()).map(
            lambda t: (t[0] * t[1], t[1])
        ),
        st.tuples(wide_polys, wide_polys),
        # a product with a perturbation: divisible or not, near the boundary
        st.tuples(small_polys(), small_polys(), small_polys(max_size=1)).map(
            lambda t: (t[0] * t[1] + t[2], t[1])
        ),
        st.tuples(wide_polys, wide_polys).map(lambda t: (t[0] * t[1], t[1])),
        # divisible but for the numerator's leading coefficient
        st.tuples(small_polys(), small_polys(), st.integers(1, 3)).map(
            lambda t: (bump_lead(t[0] * t[1], t[2]), t[1])
        ),
        # divisible up to the content: the coefficient test decides
        st.tuples(
            small_polys(), small_polys(), st.integers(1, 4), st.integers(2, 4)
        ).map(lambda t: (t[0] * scale(t[1], t[2]), scale(t[1], t[3]))),
    ).filter(lambda t: bool(t[1]))
)
def test_exact_div_against_long_division_oracle(pair):
    a, b = pair
    quotient = division_outcome(LaurentPoly.exact_div, a, b)
    assert quotient == division_outcome(long_division, a, b)
    if quotient is not NotDivisibleError:
        assert quotient * b == a


def test_exact_div_goldens():
    y1, y2 = LaurentPoly.var(T2, "y1"), LaurentPoly.var(T2, "y2")
    assert (y1 * y1 - y2 * y2).exact_div(y1 - y2) == y1 + y2
    # the first quotient term adds y1 * y2, a key the numerator lacks, which
    # the walk must take between the numerator's keys; without the cancelling
    # term there is no quotient
    assert (y1 * y1 - y2 * y2).exact_div(y1 + y2) == y1 - y2
    assert (y1**3 - y2**3).exact_div(y1 - y2) == y1 * y1 + y1 * y2 + y2 * y2
    for num, den in [(y1 * y1, y1 - y2), (y1 * y1, y1 + y2), (y1**3, y1 - y2)]:
        with pytest.raises(NotDivisibleError):
            num.exact_div(den)
    # monomials are units of the Laurent ring, so they always divide
    assert (y1 + y2).exact_div(y1) == LaurentPoly(T2, {(0, 0): 1, (-1, 1): 1})
    one = LaurentPoly.one(T2)
    with pytest.raises(NotDivisibleError):
        (y1 + one).exact_div(y2 + one)
    with pytest.raises(NotDivisibleError):
        (y1 + y2).exact_div(y1 + y2 + one)
    # the divisor's degree exceeds the numerator's after normalisation
    with pytest.raises(NotDivisibleError):
        y2.exact_div(y1 + y2)
    with pytest.raises(NotDivisibleError):
        (y1 + one).exact_div(y1 * y1 + y2)
    with pytest.raises(NotDivisibleError):
        (scale(y1, 3) + one).exact_div(scale(y1, 2) + one)
    # single-term divisors with non-unit coefficients
    assert (scale(y1, 4) + scale(y2, -6)).exact_div(scale(y1, 2)) == LaurentPoly(
        T2, {(0, 0): 2, (-1, 1): -3}
    )
    with pytest.raises(NotDivisibleError):
        (scale(y1, 4) + scale(y2, 3)).exact_div(scale(y1, 2))


def test_substitute_identity_and_units():
    t = VarTable(("y1", "y2", "y3", "t1", "t2"))
    y1, y2, y3 = (LaurentPoly.var(t, name) for name in ("y1", "y2", "y3"))
    p = LaurentPoly(t, {(1, -1, 0, 0, 0): 1})
    assert p.substitute({"y1": y1, "y2": y2}) == p
    with pytest.raises(ValidationError):
        p.substitute({"y2": y2})  # y1 occurs and has no image
    q = LaurentPoly(t, {(-1, 1, 0, 0, 0): 1, (-1, 0, 1, 0, 0): 1})
    image = LaurentPoly(t, {(0, 0, 0, 1, 1): 1})
    out = q.substitute({"y1": image, "y2": y2, "y3": y3})
    assert out == LaurentPoly(t, {(0, 1, 0, -1, -1): 1, (0, 0, 1, -1, -1): 1})


def test_substitute_zero_lands_over_the_images_table():
    zero = LaurentPoly(T2, {})
    image = LaurentPoly.var(T3, "y3")
    assert zero.substitute({"y1": image, "y2": image}) == LaurentPoly(T3, {})
    assert zero.substitute({"y1": image}).vars == T3
    assert zero.substitute({}) == zero


def test_substitute_nonunit_requires_rational_mode():
    y1, y2 = LaurentPoly.var(T2, "y1"), LaurentPoly.var(T2, "y2")
    # (y1^2 + y1 y2)/y1 substituted through y1 -> y1 + y2 stays polynomial
    frac = LaurentPoly(T2, {(1, 0): 1, (0, 1): 1, (-1, 2): 1})  # y1 + y2 + y2^2/y1
    out = frac.substitute({"y1": y2, "y2": y2})
    assert out == y2 + y2 + y2
    q = LaurentPoly(T2, {(-1, 0): 1}) * ((y1 + y2) ** 2)  # (y1 + y2)^2 / y1
    res = q.substitute({"y1": (y1 + y2) ** 2, "y2": y2 * (y1 + y2)})
    assert res == (y1 + y2) ** 2 + scale(y2, 2) * (y1 + y2) + y2 * y2


def test_substitute_rational_failure():
    y1, y2 = LaurentPoly.var(T2, "y1"), LaurentPoly.var(T2, "y2")
    p = LaurentPoly(T2, {(-1, 1): 1})  # y2 / y1
    with pytest.raises(NotPolynomialAfterSubstitutionError):
        p.substitute({"y1": y1 + y2, "y2": y2})


def unit_power(img, k):
    """``img ** k``; for k < 0, ``img`` is one term with coefficient +-1."""
    if k >= 0:
        return img ** k
    ((exp, coef),) = img.terms.items()
    return LaurentPoly(img.vars, {tuple(k * e for e in exp): coef ** -k})


def substitute_oracle(p, images):
    """The former rational mode of ``substitute`` (an image for every variable).

    Single-term images with coefficient +-1 are inverted term by term; the
    negative exponents of every other image are cleared by one exact quotient.
    """
    (target,) = {img.vars for img in images.values()}
    if not p.terms:
        return LaurentPoly(target, {})
    img_list = [images[name] for name in p.vars.names]
    shifts = [0] * len(p.vars)
    for i, mn in enumerate(p.min_exponents()):
        img = img_list[i]
        unit = len(img.terms) == 1 and next(iter(img.terms.values())) in (1, -1)
        if mn < 0 and not unit:
            shifts[i] = -mn
    numerator = LaurentPoly(target, {})
    for exp, coef in p.terms.items():
        term = LaurentPoly(target, {(0,) * len(target): coef})
        for img, e, s in zip(img_list, exp, shifts):
            if e + s:
                term = term * unit_power(img, e + s)
        numerator = numerator + term
    denominator = LaurentPoly.one(target)
    for img, s in zip(img_list, shifts):
        if s:
            denominator = denominator * img**s
    if denominator == LaurentPoly.one(target):
        return numerator
    if not denominator:
        raise NotPolynomialAfterSubstitutionError("zero image inverted")
    try:
        return numerator.exact_div(denominator)
    except NotDivisibleError as exc:
        raise NotPolynomialAfterSubstitutionError("not a Laurent polynomial") from exc


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotPolynomialAfterSubstitutionError:
        return "not a Laurent polynomial"


unit_monomials = st.tuples(
    st.tuples(*([st.integers(-2, 2)] * 3)), st.sampled_from([1, -1])
).map(lambda ec: LaurentPoly(T3, {ec[0]: ec[1]}))
images_t3 = st.one_of(
    small_polys(T3, -1, 2, 2), monomials(T3, -2, 2), unit_monomials, st.just(LaurentPoly.one(T3))
)


@settings(max_examples=150, deadline=None)
@given(small_polys(T2, -2, 2, 3), images_t3, images_t3)
def test_substitute_matches_rational_oracle(p, img1, img2):
    """Random polynomials and images, unit monomials among them: one exact
    quotient agrees with the former mode, or both find no Laurent value."""
    images = {"y1": img1, "y2": img2}
    assert _outcome(LaurentPoly.substitute, p, images) == _outcome(substitute_oracle, p, images)


def test_multidegree():
    grading = {"y1": (1, 0), "y2": (0, 1)}
    mono = LaurentPoly(T2, {(2, -1): 3})
    assert mono.multidegree(grading) == (2, -1)
    mixed = LaurentPoly(T2, {(1, 0): 1, (0, 1): 1})
    assert mixed.multidegree(grading) is None
    same = LaurentPoly(T2, {(1, 0): 1, (0, 1): 1}).multidegree(
        {"y1": (1,), "y2": (1,)}
    )
    assert same == (1,)


def test_canonical_serialization_deterministic():
    a = LaurentPoly(T2, {(1, 0): 2, (0, 2): -3, (1, 1): 5})
    b = LaurentPoly(T2, {(1, 1): 5, (1, 0): 2, (0, 2): -3})
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    assert LaurentPoly.from_json(a.to_json()) == a


def test_from_json_rejects_repeated_exponent():
    doc = {"vars": ["y1"], "terms": [{"exp": [1], "coef": "1"}, {"exp": [1], "coef": "2"}]}
    with pytest.raises(ValidationError, match="repeated"):
        LaurentPoly.from_json(doc)
    doc["terms"][1]["exp"] = [2]
    assert LaurentPoly.from_json(doc).terms == {(1,): 1, (2,): 2}


def test_negative_power_of_sum_rejected():
    y1, y2 = LaurentPoly.var(T2, "y1"), LaurentPoly.var(T2, "y2")
    with pytest.raises(ValidationError, match="negative power -1"):
        y1 ** -1
    with pytest.raises(ValidationError, match="negative power -1"):
        (y1 + y2) ** -1


# -- the tuple-dict kernel: every operation packs its operands' exponent
# tuples, works on the packed ints and unpacks the result.  Kept as the
# oracle of the packed representation.


def tuple_pack(terms, base, bits):
    width = len(base)
    shifts = range((width - 1) * bits, -1, -bits)
    total_shift = width * bits
    out = {}
    for exp, coef in terms.items():
        d = list(map(sub, exp, base))
        out[sum(map(lshift, d, shifts), sum(d) << total_shift)] = coef
    return out


def tuple_unpack(packed, base, bits):
    shifts = range((len(base) - 1) * bits, -1, -bits)
    mask = (1 << bits) - 1
    return {
        tuple([(key >> s & mask) + b for s, b in zip(shifts, base)]): coef
        for key, coef in packed.items()
        if coef
    }


def tuple_min_exponents(terms, width):
    return tuple(map(min, zip(*terms))) if terms else (0,) * width


def tuple_mul(a, b):
    a_terms, b_terms = a.terms, b.terms
    if len(a_terms) < len(b_terms):
        a_terms, b_terms = b_terms, a_terms
    if not b_terms:
        return LaurentPoly(a.vars, {})
    if len(b_terms) == 1:
        ((e0, c0),) = b_terms.items()
        return LaurentPoly(a.vars, {tuple(map(add, e, e0)): c * c0 for e, c in a_terms.items()})
    width = len(a.vars)
    mb, ms = tuple_min_exponents(a_terms, width), tuple_min_exponents(b_terms, width)
    top = max(map(sum, a_terms)) - sum(mb) + max(map(sum, b_terms)) - sum(ms)
    bits = top.bit_length() + 1
    packed_small = list(tuple_pack(b_terms, ms, bits).items())
    out = {}
    for k1, c1 in tuple_pack(a_terms, mb, bits).items():
        for k2, c2 in packed_small:
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return LaurentPoly(a.vars, tuple_unpack(out, tuple(map(add, mb, ms)), bits))


def tuple_exact_div(a, b):
    a_terms, b_terms = a.terms, b.terms
    if not a_terms:
        return LaurentPoly(a.vars, {})
    if len(b_terms) == 1:
        ((e0, c0),) = b_terms.items()
        if any(c % c0 for c in a_terms.values()):
            raise NotDivisibleError("no exact Laurent quotient")
        return LaurentPoly(a.vars, {tuple(map(sub, e, e0)): c // c0 for e, c in a_terms.items()})
    width = len(a.vars)
    sa, sb = tuple_min_exponents(a_terms, width), tuple_min_exponents(b_terms, width)
    top = max(map(sum, a_terms)) - sum(sa)
    if max(map(sum, b_terms)) - sum(sb) > top:
        raise NotDivisibleError("no exact Laurent quotient")
    bits = top.bit_length() + 1
    guard = sum(1 << (s + bits - 1) for s in range(0, (width + 1) * bits, bits))
    den = sorted(tuple_pack(b_terms, sb, bits).items(), reverse=True)
    lead, lead_coef = den[0]
    tail = [(k, -c) for k, c in den[1:]]
    rem = tuple_pack(a_terms, sa, bits)
    heap = [-k for k in rem]
    heapify(heap)
    quot = {}
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
    return LaurentPoly(a.vars, tuple_unpack(quot, tuple(map(sub, sa, sb)), bits))


def terms_or_error(divide, a, b):
    """The quotient's exponent-tuple terms, or NotDivisibleError."""
    try:
        return divide(a, b).terms
    except NotDivisibleError:
        return NotDivisibleError


def copy_of(x):
    """An equal value that is a different object."""
    return LaurentPoly(x.vars, x.terms)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.tuples(small_polys(), small_polys()),
        st.tuples(wide_polys, wide_polys),
        st.tuples(grown_polys, small_polys()),
        st.tuples(grown_polys, grown_polys),
    )
)
def test_packed_kernel_against_tuple_kernel(pair):
    a, b = pair
    product = a * b
    assert product.terms == tuple_mul(a, b).terms
    if b:
        assert terms_or_error(LaurentPoly.exact_div, product, b) == a.terms
        for num in (a, a + b, product + a):
            assert terms_or_error(LaurentPoly.exact_div, num, b) == terms_or_error(
                tuple_exact_div, num, b
            )


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_polys(), wide_polys, grown_polys))
def test_square_and_cube_against_tuple_kernel(x):
    square = tuple_mul(x, x).terms
    assert (x * x).terms == (x * copy_of(x)).terms == square
    assert (x**2).terms == square
    assert (x**3).terms == tuple_mul(tuple_mul(x, x), x).terms


@settings(max_examples=120, deadline=None)
@given(small_polys(), small_polys(), small_polys(T2, -9, 9, 3).filter(bool))
def test_cancelled_sums_as_numerator_and_divisor(a, b, c):
    """``(a + c) - c`` is ``a`` over a base that may lie below a's minimum."""
    s = (a + c) - c
    assert s.terms == a.terms
    assert s == a and a == s and hash(s) == hash(a)
    assert s.min_exponents() == tuple_min_exponents(a.terms, 2)
    assert (s * b).terms == tuple_mul(a, b).terms
    if b:
        assert terms_or_error(LaurentPoly.exact_div, s, b) == terms_or_error(tuple_exact_div, a, b)
        assert terms_or_error(LaurentPoly.exact_div, s * b, b) == a.terms
    if a:
        assert terms_or_error(LaurentPoly.exact_div, b * a, s) == b.terms
        assert terms_or_error(LaurentPoly.exact_div, b + c, s) == terms_or_error(
            tuple_exact_div, b + c, a
        )


@settings(max_examples=60, deadline=None)
@given(small_polys(), grown_polys.filter(bool))
def test_equal_values_of_different_widths(a, g):
    """A quotient of a numerator with wide digits comes out at the narrowest
    width, so it equals a value packed with narrow digits from the start."""
    q = (a * g).exact_div(g)
    assert q == a and a == q and hash(q) == hash(a)
    assert (q + g) - g == a
    assert q != a + LaurentPoly.one(T2)


def cancelled_sums(polys, others=None):
    """``(a + c) - c``: keys of ``c`` that ``a`` lacks cancel again; ``c`` is
    drawn from ``others`` when given, else from ``polys``."""
    others = polys if others is None else others
    return st.tuples(polys, others).map(lambda t: (t[0] + t[1]) - t[1])


def normal_fields(x):
    """The base, width and packed keys the constructor gives x's terms."""
    y = LaurentPoly(x.vars, x.terms)
    return y._base, y._bits, y._packed


def test_sums_in_which_a_key_cancels_are_built_by_the_constructor():
    """A sum in which a key cancels is built again by the constructor, field
    by field: whether every minimum and the width stay, the top narrows, a
    minimum rises, or nothing is left."""
    y1, y2 = (LaurentPoly.var(T2, name) for name in ("y1", "y2"))
    one = LaurentPoly.one(T2)
    cases = [
        # every minimum (0, 0) and the width 8 stay
        ((y1**2 + y1 * y2 + y2**2) - y1 * y2, {(2, 0): 1, (0, 2): 1}),
        # the top degree 200 needs 16-bit digits; 2 fits in 8 again
        ((y1**200 + y1 * y2 + one) - y1**200, {(1, 1): 1, (0, 0): 1}),
        # the minimum of y1 rises from -1 to 0
        ((y1 + y2 + one.exact_div(y1)) - one.exact_div(y1), {(1, 0): 1, (0, 1): 1}),
        ((y1 + y2) - (y2 + y1), {}),
    ]
    for value, terms in cases:
        built = LaurentPoly(T2, terms)
        assert value.terms == terms
        assert value.vars is built.vars
        assert (value._base, value._bits, value._packed) == (built._base, built._bits, built._packed)
    assert cases[1][0]._bits == 8 and (y1**200 + y1 * y2 + one)._bits == 16


t2_values = st.one_of(
    small_polys(),
    grown_polys,
    cancelled_sums(small_polys(T2, -9, 9, 3)),
    # a far term that cancels again: no minimum moves, the top falls below 128
    cancelled_sums(small_polys(T2, -9, 9, 3), monomials(T2, 60, 90)),
)
t3_values = st.one_of(wide_polys, cancelled_sums(wide_polys))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.tuples(t2_values, t2_values), st.tuples(t3_values, t3_values)),
    st.tuples(
        st.one_of(small_polys(T2, -2, 2, 3), cancelled_sums(small_polys(T2, -2, 2, 3))),
        images_t3,
        images_t3,
    ),
)
def test_every_result_is_in_normal_form(pair, substitution):
    """Each operation makes its result over the exact per-variable minimum at
    the narrowest width, exactly as the constructor packs the same terms, so
    equality and hashing can compare fields."""
    a, b = pair
    results = [a, b, a + b, a - b, b - a, a * b, a * a, a**0, a**2, b**3]
    if b:
        results.append((a * b).exact_div(b))
        for num in (a, a + b, a * b + a):
            with contextlib.suppress(NotDivisibleError):
                results.append(num.exact_div(b))
    p, img1, img2 = substitution
    with contextlib.suppress(NotPolynomialAfterSubstitutionError):
        results.append(p.substitute({"y1": img1, "y2": img2}))
    for r in results:
        assert (r._base, r._bits, r._packed) == normal_fields(r)


def test_term_pair_limit_counts_unordered_pairs_of_a_square(monkeypatch):
    x = LaurentPoly(T2, {(0, 0): 1, (1, 0): 2, (0, 1): 3})
    monkeypatch.setattr(laurent, "MAX_TERM_PAIRS", 6)
    assert (x * x).terms == tuple_mul(x, x).terms
    with pytest.raises(TermLimitError, match="product of 3 by 3 terms forms 9 term pairs"):
        x * copy_of(x)
    monkeypatch.setattr(laurent, "MAX_TERM_PAIRS", 5)
    with pytest.raises(TermLimitError, match="forms 6 term pairs, over the limit of 5"):
        x**2


def test_mu_i_pass_keeps_values_packed(monkeypatch, wild3):
    """A chain pass packs and unpacks nothing: no operation converts its
    operands or its result, not even the products that widen their digits on
    the multiplication-heavy word."""
    calls = {"_pack": 0, "_unpack": 0}
    for name in calls:

        def counting(*args, name=name, original=getattr(laurent, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(laurent, name, counting)
    for letters in [(2, 3, 1, 3, 2, 3, 2, 1, 3), (3, 2, 3, 2, 1, 3, 2, 1, 3)]:
        report = run_mu_i(ReducedWord(wild3, letters))
        assert report.steps_checked == len(report.plan.steps)
        assert calls == {"_pack": 0, "_unpack": 0}


# values with 8-bit digits, and values with 16-bit digits: a far monomial
# beside at least one other term puts the top digit at 138 or more
narrow_t3 = small_polys(T3, -3, 4, 5)
sixteen_bit_t3 = st.tuples(small_polys(T3, -3, 4, 4).filter(bool), monomials(T3, 50, 60)).map(
    lambda t: t[0] + t[1]
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(narrow_t3, st.sampled_from([16, 24])),
        st.tuples(sixteen_bit_t3, st.just(24)),
    ),
    st.tuples(*[st.integers(0, 6)] * 3),
)
def test_widened_keys_match_packing_the_exponent_tuples(case, drop):
    """Moving each digit to a wider width, over the base or over one lowered
    by ``drop``, gives the keys that packing the exponent tuples gives."""
    p, bits = case
    assert (p._bits, bits) in {(8, 16), (8, 24), (16, 24)}
    base = tuple(map(sub, p._base, drop))
    assert p._rebased(base, bits) == laurent._pack(p.terms, base, bits)
