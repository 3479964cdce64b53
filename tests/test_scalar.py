import operator
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qfodc.cyclotomic import CycRing, cyclotomic_coeffs
from qfodc.scalar import (
    FieldConfig,
    MAX_N,
    ONE,
    Scalar,
    UnsupportedConfigError,
    ZERO,
    _pmul,
    _to_dict,
    parse_scalar,
)

from oracles import cartan
from strategies import from_coeffs, from_fraction, scalars

P = Scalar.p_power


def rand_scalar(rng, max_terms=3, max_exp=4, max_coef=6, laurent_only=False):
    def poly(allow_zero):
        out = {}
        for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
            out[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coef, max_coef)
        return {e: c for e, c in out.items() if c}
    num = poly(True)
    if laurent_only:
        return Scalar(num)
    den = poly(False)
    while not den:
        den = poly(False)
    return Scalar(num, den)


def test_canonical_constants():
    assert ZERO.is_zero() and str(ZERO) == "0"
    assert ONE.is_one() and str(ONE) == "1"
    assert Scalar({0: 2}, {0: 4}) == from_fraction(1, 2)
    assert Scalar({2: 2, 0: -2}, {1: 2}) == Scalar({1: 1, -1: -1})


def test_add_q_and_q_inverse():
    # q + q^{-1} = (q^2+1)/q, here with q = p^2 (the SL_q(2) ground field)
    q = FieldConfig.sl(2).q
    s = q + q.inverse()
    assert s == Scalar({4: 1, 0: 1}, {2: 1})
    assert str(s) == "(p^4+1)/p^2"


def test_mul_by_inverse_is_one():
    q = FieldConfig.sl(3).q
    lam = q - q.inverse()
    assert lam * lam.inverse() == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_field_laws_random():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a - a == ZERO
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_canonicalization_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        a = rand_scalar(rng)
        again = Scalar(dict(a.num), dict(a.den))
        assert again.num == a.num and again.den == a.den


def _to_sympy(s, sympy):
    import re
    txt = re.sub(r"(\d)p", r"\1*p", str(s)).replace("^", "**")
    return sympy.sympify(txt)


def test_canonical_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(40):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        ours = a * b + a
        theirs = sympy.cancel(_to_sympy(a, sympy) * _to_sympy(b, sympy) + _to_sympy(a, sympy))
        assert sympy.simplify(_to_sympy(ours, sympy) - theirs) == 0


def test_parse_print_roundtrip():
    rng = random.Random(5)
    for _ in range(150):
        a = rand_scalar(rng)
        assert parse_scalar(str(a)) == a
    assert parse_scalar("(p^4+1)/p^2") == P(2) + P(-2)
    assert parse_scalar("-3p^2+1") == Scalar({2: -3, 0: 1})
    assert parse_scalar("5/2") == from_fraction(5, 2)


@given(scalars() | st.just(ZERO))
def test_parse_print_roundtrip_property(a):
    assert parse_scalar(str(a)) == a


@given(scalars())
def test_one_is_a_neutral_factor(s):
    assert ONE * s == s * ONE == s


def test_one_times_a_fraction_takes_no_gcd(monkeypatch):
    from qfodc import scalar

    f = Scalar({0: 1}, {0: 1, 1: 1})

    def no_gcd(a, b):
        raise AssertionError("polynomial gcd taken")

    monkeypatch.setattr(scalar, "_poly_gcd", no_gcd)
    assert ONE * f == f * ONE == f


def test_a_sum_with_an_integral_operand_takes_no_gcd(monkeypatch):
    # a/d + b = (a + b d)/d is canonical when a/d is and b has denominator 1
    from qfodc import scalar

    def no_gcd(a, b):
        raise AssertionError("polynomial gcd taken")

    f = Scalar({0: 1}, {0: 1, 1: 1})
    ring = CycRing(3)
    c = from_coeffs(ring, [f, P(1) * f])
    z = ring.root_power(1)
    scalar.clear_memos()
    monkeypatch.setattr(scalar, "_poly_gcd", no_gcd)
    s = f + P(2)
    assert (s.num, s.den) == ({0: 1, 2: 1, 3: 1}, {0: 1, 1: 1})
    assert P(2) + f == s
    d = f - P(1)
    assert (d.num, d.den) == ({0: 1, 1: -1, 2: -1}, {0: 1, 1: 1})
    for t in (c + P(2), P(2) + c, c - P(1), P(1) - c, c + z, z + c, c - z):
        assert t.den == {0: 1, 1: 1}
    assert (c + P(2)).nums == (s.num, {1: 1})
    assert (c - P(1)).nums == (d.num, {1: 1})


def _fraction_dens():
    """Denominators with constant, cyclotomic and other factors in p, so
    that operands share factors and their results cancel."""
    factor = st.sampled_from(
        [{0: 2}, {0: 3}, {0: -6}, {0: 1, 1: 2}, {0: 3, 2: 1}]
        + [_to_dict(cyclotomic_coeffs(k)) for k in (1, 2, 3, 4, 6)])
    return st.lists(factor, min_size=1, max_size=3).map(_product)


def _product(polys):
    out = {0: 1}
    for a in polys:
        out = _pmul(out, a)
    return out


def _oracle_scalars():
    nums = st.builds(_pmul, st.dictionaries(
        st.integers(-3, 3), st.integers(-4, 4).filter(bool), min_size=1, max_size=3),
        _fraction_dens())
    return st.builds(Scalar, nums, _fraction_dens()) | scalars() | st.just(ZERO)


def _assert_canonical(s, sympy, p):
    """(num, den) is the unique canonical form of its value."""
    num, den = s.num, s.den
    if not num:
        assert den == {0: 1}
        return
    assert min(den) == 0 and den[0] and den[max(den)] > 0
    content = 0
    for c in list(num.values()) + list(den.values()):
        content = gcd(content, c)
    assert content == 1
    v = min(num)
    assert sympy.gcd(_sympy_poly(num, p, -v), _sympy_poly(den, p)) == 1


def _sympy_poly(a, p, shift=0):
    return sum(c * p ** (e + shift) for e, c in a.items())


@settings(deadline=None, max_examples=100)
@given(_oracle_scalars(), _oracle_scalars())
def test_arithmetic_matches_sympy_and_is_canonical(a, b):
    # an oracle outside the fraction kernel that Scalar and CycElem share
    sympy = pytest.importorskip("sympy")
    p = sympy.Symbol("p")

    def value(s):
        return _sympy_poly(s.num, p) / _sympy_poly(s.den, p)

    ops = [operator.add, operator.sub, operator.mul]
    if not b.is_zero():
        ops.append(operator.truediv)
    for op in ops:
        got = op(a, b)
        _assert_canonical(got, sympy, p)
        want = sympy.cancel(op(value(a), value(b)))
        assert sympy.cancel(value(got) - want) == 0, op


def test_pow():
    q = FieldConfig.sl(2).q
    assert q ** 3 == P(6)
    assert q ** -2 == P(-4)
    assert q ** 0 == ONE


# -- field configuration ----------------------------------------------------

def test_config_a_series():
    cfg = FieldConfig.sl(3)
    assert cfg.q == P(3) and cfg.z == P(-1)
    assert cfg.z ** cfg.N == cfg.q.inverse()  # z^N = q^{-1} identically
    assert cfg.rank == 2 and cfg.zeta_order == 3


def test_config_c_series():
    cfg = FieldConfig.sp(2)
    assert cfg.N == 4 and cfg.rank == 2 and cfg.zeta_order == 2
    assert cfg.q == P(1)
    assert cfg.z == ONE and cfg.z * cfg.z == ONE
    assert cartan(cfg) == [[2, -2], [-1, 2]]


def test_config_rejects_bad_input():
    with pytest.raises(UnsupportedConfigError):
        FieldConfig.sl(1)
    with pytest.raises(UnsupportedConfigError):
        FieldConfig("C", 3)
    with pytest.raises(UnsupportedConfigError):
        FieldConfig("B", 3)
    with pytest.raises(UnsupportedConfigError):
        FieldConfig.sl(MAX_N + 1)
    with pytest.raises(UnsupportedConfigError):
        FieldConfig.sp(MAX_N // 2 + 1)


def test_config_accepts_the_largest_size():
    assert FieldConfig.sl(MAX_N).N == FieldConfig.sp(MAX_N // 2).N == MAX_N


# -- memoised operations ------------------------------------------------------

def test_cli_main_starts_with_every_table_empty(monkeypatch, capsys):
    from qfodc import cli, scalar

    sizes = []
    workspace = cli.Workspace

    def tables():
        return [len(table) for table, _ in scalar.MEMOS] + [len(scalar._INTERNED)]

    def recorded(*args):
        sizes.append(tables())
        return workspace(*args)

    monkeypatch.setattr(cli, "Workspace", recorded)
    argv = ["build", "--series", "sl", "--n", "2", "--corep", "u"]
    for _ in range(2):
        P(1) * P(2) + P(3) - P(4)
        assert all(tables()[:3]) and tables()[-1]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(scalar.MEMOS) == 6  # Scalar's +, -, * and CycElem's
    assert sizes == [[0] * 7] * 2
    assert all(tables()[:3])


def test_a_full_table_is_emptied_and_results_stay(monkeypatch):
    from qfodc import cyclotomic, scalar

    z = cyclotomic.CycRing(3).root_power(1)
    cases = ((scalar._MUL, [P(k) for k in range(8)], Scalar({0: 1}, {0: 1, 1: 1})),
             (cyclotomic._MUL, [z * P(k) for k in range(8)], z + ONE))
    monkeypatch.setattr(scalar, "MEMO_CAP", 3)
    for table, lefts, b in cases:
        scalar.clear_memos()
        sizes = []
        for a in lefts:
            for _ in range(2):  # a miss, then a hit
                assert a * b == type(a)._mul(a, b)
            sizes.append(len(table))
        assert sizes == [1, 2, 3, 1, 2, 3, 1, 2]
