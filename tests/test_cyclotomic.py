import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from qfodc import cli, cyclotomic, scalar
from qfodc.cyclotomic import (
    CycElem,
    CycRing,
    InvalidCharacterError,
    Zeta,
    admissible_zeta,
    all_admissible,
    cyclotomic_coeffs,
)
from qfodc.scalar import FieldConfig, ONE, Scalar, ZERO

from strategies import cyc_coeffs, cyc_elems, from_coeffs, from_fraction, scalars


def test_cyclotomic_coeffs():
    assert cyclotomic_coeffs(1) == [-1, 1]
    assert cyclotomic_coeffs(2) == [1, 1]
    assert cyclotomic_coeffs(3) == [1, 1, 1]
    assert cyclotomic_coeffs(4) == [1, 0, 1]
    assert cyclotomic_coeffs(6) == [1, -1, 1]


def test_root_powers_cycle():
    for order in (3, 4, 5, 6):
        ring = CycRing(order)
        z = ring.root_power(1)
        acc = ring.one
        seen = []
        for _ in range(order):
            acc = acc * z
            seen.append(acc)
        assert acc == ring.one  # z^order = 1
        assert all(not (a - ring.one).is_zero() for a in seen[:-1])


def test_ring_arithmetic_and_inverse():
    ring = CycRing(3)
    rng = random.Random(3)
    for _ in range(30):
        a = from_coeffs(ring, [Scalar({rng.randint(-2, 2): rng.randint(1, 3)}),
                               Scalar({rng.randint(-2, 2): rng.randint(0, 2)})])
        b = ring.root_power(rng.randint(0, 2)) * Scalar.from_int(rng.randint(1, 5))
        assert (a + b) - b == a
        if not a.is_zero():
            assert (a.inverse() * a) == ring.one
        assert a * b == b * a


def test_scalar_coercion():
    ring = CycRing(3)
    z = ring.root_power(1)
    s = Scalar.p_power(2)
    assert (s * z) * z * z == ring.lift(s)   # s * z^3 = s
    assert (z + s) - z == ring.lift(s)


def test_zeta_normalization():
    assert Zeta(3, 0) == Zeta(1, 0)
    assert Zeta(4, 2) == Zeta(2, 1)
    assert Zeta(4, 2).value == Scalar.from_int(-1)
    assert Zeta(6, 2) == Zeta(3, 1)
    assert Zeta(2, 1).value == Scalar.from_int(-1)
    z3 = Zeta(3, 1)
    assert z3.power_value(3) == ONE


def test_twists_of_one_configuration_share_its_ring():
    cfg = FieldConfig.sl(6)
    ring = CycRing(cfg.zeta_order)
    zetas = all_admissible(cfg) + [admissible_zeta(cfg, 6, 2), admissible_zeta(cfg, 2, 1)]
    values = [z.power_value(m) for z in zetas for m in range(cfg.zeta_order + 1)]
    assert {v.ring for v in values if isinstance(v, CycElem)} == {ring}
    w = admissible_zeta(cfg, 6, 1)
    assert w.value * admissible_zeta(cfg, 6, 2).value == w.power_value(3) == -ONE
    assert admissible_zeta(cfg, 6, 2) == Zeta(3, 1) and str(Zeta(6, 4)) == "zeta3^2"


def test_inverse_inverts_one_scalar(monkeypatch):
    calls = []
    inverse = Scalar.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Scalar, "inverse", counted)
    c = Scalar({0: 1, 1: 2}, {0: 3, 2: 1})
    for order in (3, 4, 5, 6):
        ring = CycRing(order)
        a = from_coeffs(ring, [c, ONE] + [Scalar({1: 1}, {0: 1, 1: -2})] * (ring.degree - 2))
        assert a.rational_part() is None
        calls.clear()
        b = a.inverse()
        assert len(calls) == 1
        assert a * b == ring.one


def test_admissibility():
    sl2 = FieldConfig.sl(2)
    sl3 = FieldConfig.sl(3)
    sp1 = FieldConfig.sp(1)
    assert [str(z) for z in all_admissible(sl2)] == ["1", "-1"]
    assert len(all_admissible(sl3)) == 3
    assert [str(z) for z in all_admissible(sp1)] == ["1", "-1"]
    admissible_zeta(sl2, 2, 1)
    with pytest.raises(InvalidCharacterError):
        admissible_zeta(sl2, 4, 1)  # zeta = i is not admissible for SL_q(2)
    with pytest.raises(InvalidCharacterError):
        admissible_zeta(sp1, 3, 1)


def test_zeta_values_sum_to_zero():
    # 1 + w + w^2 = 0 for the cube roots
    ring = CycRing(3)
    zs = [Zeta(3, j) for j in range(3)]
    total = ring.zero
    for z in zs:
        v = z.value
        total = total + (ring.lift(v) if isinstance(v, Scalar) else v)
    assert total.is_zero()


def test_rational_elements_hash_as_their_scalar():
    ring = CycRing(3)
    z = ring.root_power(1)
    for s in (ZERO, ONE, Scalar.p_power(-2), Scalar({0: 3, 2: -1}, {0: 2, 1: 1})):
        computed = (s * z) * z * z   # s z^3 = s, reached through arithmetic
        for e in (ring.lift(s), computed):
            assert e == s and s == e
            assert hash(e) == hash(s)
            assert len({e, s}) == 1
            assert e.rational_part() == s
    assert z.rational_part() is None
    assert z != ONE and z != ring.one


# ---------------------------------------------------------------------------
# differential tests against per-coefficient arithmetic
# ---------------------------------------------------------------------------

class RefElem:
    """Reference: an element of Q(p)[x]/Phi_n as a tuple of reduced Scalar
    coefficients, every coefficient product and sum normalised on its own."""

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    def __add__(self, o):
        return RefElem(self.ring, (a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __sub__(self, o):
        return RefElem(self.ring, (a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return RefElem(self.ring, (-a for a in self.coeffs))

    def __mul__(self, o):
        d = self.ring.degree
        prod = [ZERO] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                prod[i + j] = prod[i + j] + a * b
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            red = self.ring._reduction[k]
            out = [w + prod[k] * Scalar.from_int(r) for w, r in zip(out, red)]
        return RefElem(self.ring, out)

    def inverse(self):
        # Bezout over Q(p): s * a + t * Phi = const
        r0 = [Scalar.from_int(c) for c in self.ring.modulus]
        r1 = _trim(self.coeffs)
        s0, s1 = [ZERO], [ONE]
        while len(r1) > 1:
            q, r = _divmod(r0, r1)
            r0, r1 = r1, r
            prod = [ZERO] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    prod[i + j] = prod[i + j] + x * y
            n = max(len(s0), len(prod))
            s0, s1 = s1, [(s0[i] if i < len(s0) else ZERO)
                          - (prod[i] if i < len(prod) else ZERO) for i in range(n)]
        c = r1[0].inverse()
        out = [c * v for v in s1] + [ZERO] * self.ring.degree
        return RefElem(self.ring, out[: self.ring.degree])

    def __eq__(self, o):
        return self.coeffs == o.coeffs

    def rational_part(self):
        if all(c.is_zero() for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def complexity(self):
        return sum(len(c.num) + len(c.den) for c in self.coeffs)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(str(c))
            else:
                zi = "zeta" if i == 1 else f"zeta^{i}"
                parts.append(f"({c})*{zi}")
        return " + ".join(parts) if parts else "0"


def _trim(a):
    a = list(a)
    while len(a) > 1 and a[-1].is_zero():
        a.pop()
    return a


def _divmod(a, b):
    a, b = _trim(a), _trim(b)
    q = [ZERO] * max(1, len(a) - len(b) + 1)
    inv = b[-1].inverse()
    while len(a) >= len(b) and not (len(a) == 1 and a[0].is_zero()):
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i in range(len(b)):
            a[k + i] = a[k + i] - c * b[i]
        a = _trim(a)
    return _trim(q), a


def _agree(elem, ref):
    """elem (CycElem) and ref (RefElem) are the same field element, and elem
    is the unique canonical form of it."""
    ring = elem.ring
    assert elem.coeffs == ref.coeffs
    assert elem == from_coeffs(ring, ref.coeffs)
    assert hash(elem) == hash(from_coeffs(ring, ref.coeffs))
    assert str(elem) == str(ref)
    assert elem.complexity() == ref.complexity()
    assert elem.is_zero() == all(c.is_zero() for c in ref.coeffs)
    rat = ref.rational_part()
    assert elem.rational_part() == rat
    if rat is not None:
        assert elem == rat and hash(elem) == hash(rat)


ORDERS = st.sampled_from([3, 4, 5, 6])


def _pair(order):
    return st.tuples(st.just(order), cyc_coeffs(order), cyc_coeffs(order))


@settings(deadline=None, max_examples=150)
@given(ORDERS.flatmap(_pair))
def test_arithmetic_matches_per_coefficient_reference(case):
    order, ca, cb = case
    ring = CycRing(order)
    a, b = from_coeffs(ring, ca), from_coeffs(ring, cb)
    ra, rb = RefElem(ring, ca), RefElem(ring, cb)
    _agree(a, ra)
    _agree(b, rb)
    _agree(a + b, ra + rb)
    _agree(a - b, ra - rb)
    _agree(-a, -ra)
    _agree(a * b, ra * rb)
    _agree(b * a, ra * rb)
    assert (a == b) == (ra == rb)
    assert (a + b) - b == a
    for s in (cb[0], ca[-1]):
        rs = RefElem(ring, [s] + [ZERO] * (ring.degree - 1))
        _agree(a * s, ra * rs)
        _agree(s * a, ra * rs)
        _agree(a + s, ra + rs)
        _agree(s - a, rs - ra)


@settings(deadline=None, max_examples=40)
@given(ORDERS.flatmap(lambda n: st.tuples(st.just(n), cyc_coeffs(n))))
def test_inverse_matches_per_coefficient_reference(case):
    order, ca = case
    ring = CycRing(order)
    a, ra = from_coeffs(ring, ca), RefElem(ring, ca)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    _agree(a.inverse(), ra.inverse())
    assert a * a.inverse() == ring.one
    assert a.inverse() * a == ONE


@settings(deadline=None, max_examples=50)
@given(ORDERS.flatmap(lambda n: st.tuples(cyc_elems(n), cyc_elems(n), cyc_elems(n))))
def test_ring_axioms_on_canonical_forms(case):
    a, b, c = case
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert hash((a + b) - b) == hash(a)
    if not b.is_zero():
        assert (a * b) / b == a


@given(scalars())
def test_lift_is_canonical_scalar(s):
    for order in (3, 4, 5, 6):
        e = CycRing(order).lift(s)
        assert e == s and hash(e) == hash(s) and str(e) == str(s)
        assert e.complexity() == len(s.num) + len(s.den) + CycRing(order).degree - 1


# ---------------------------------------------------------------------------
# memoised operations
# ---------------------------------------------------------------------------

def _direct(table, op, a, b):
    return op(a, b)


@settings(deadline=None, max_examples=40)
@given(ORDERS.flatmap(lambda n: st.tuples(st.lists(scalars(), min_size=1, max_size=3),
                                          st.lists(cyc_elems(n), min_size=1, max_size=2))))
def test_memo_changes_no_result(case):
    scalars_, elems = case
    ring = elems[0].ring
    # each Scalar also as its lift: equal and equally hashed, another type
    pool = scalars_ + [ring.lift(s) for s in scalars_] + elems
    ops = [(op, a, b) for op in (operator.add, operator.sub, operator.mul)
           for a in pool for b in pool]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "_memo", _direct)
        mp.setattr(cyclotomic, "_memo", _direct)
        plain = [op(a, b) for op, a, b in ops]
    scalar.clear_memos()
    for _ in range(2):  # cold tables, then warm ones
        memo = [op(a, b) for op, a, b in ops]
        assert [type(v) for v in memo] == [type(v) for v in plain]
        assert memo == plain


MIXED = {
    "c+s": lambda c, s: c + s,
    "s+c": lambda c, s: s + c,
    "c-s": lambda c, s: c - s,
    "s-c": lambda c, s: s - c,
    "c*s": lambda c, s: c * s,
    "s*c": lambda c, s: s * c,
}


def _mixed_scalars():
    """Scalar operands: ZERO, ONE, integer and polynomial denominators."""
    return st.sampled_from([ZERO, ONE, from_fraction(-2, 3)]) | scalars()


@settings(deadline=None, max_examples=60)
@given(ORDERS.flatmap(lambda n: st.tuples(
    cyc_elems(n), st.lists(_mixed_scalars(), min_size=1, max_size=3))))
def test_a_scalar_operand_acts_as_its_lift(case):
    """c op s, keyed on the Scalar s as it is, is the uncached c op lift(s):
    the same class, the same canonical dicts and the same hash."""
    c, ss = case
    ring = c.ring
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclotomic, "_memo", _direct)
        want = {(name, i): op(c, ring.lift(s))
                for name, op in MIXED.items() for i, s in enumerate(ss)}
    scalar.clear_memos()
    for _ in range(2):  # cold tables, then warm ones
        for (name, i), w in want.items():
            got = MIXED[name](c, ss[i])
            assert type(got) is CycElem, name
            assert got.nums == w.nums and got.den == w.den, name
            assert hash(got) == hash(w), name


def test_a_repeated_mixed_operation_lifts_nothing(monkeypatch):
    lifts = []
    lift = CycRing.lift

    def counted(self, s):
        lifts.append(s)
        return lift(self, s)

    monkeypatch.setattr(CycRing, "lift", counted)
    ring = CycRing(3)
    c = from_coeffs(ring, [Scalar({1: 2}, {0: 1, 1: 1}), Scalar.p_power(-1)])
    s = Scalar({0: 3, 2: -1}, {0: 2, 1: 1})
    scalar.clear_memos()
    assert c * s == s * c
    assert not lifts  # a product scales c by s, even on a miss
    for name, op in MIXED.items():
        if name != "s-c":  # s - c lifts s: its key's first operand is c's class
            op(c, s)
            lifts.clear()
            op(c, s)
            assert not lifts, name


def _fresh(x):
    """A copy of x that shares no dict with it."""
    if isinstance(x, Scalar):
        return Scalar(dict(x.num), dict(x.den), _canonical=True)
    return CycElem(x.ring, tuple(dict(n) for n in x.nums), dict(x.den))


@pytest.mark.parametrize("argv", [
    "verify --series sl --n 3 --claim minor-tau --degree 3",
    "build --series sl --n 3 --corep u --zeta=w",
    "verify --series sl --n 3 --claim coideal --zeta=w",
])
def test_memo_entries_are_what_their_keys_compute(argv, capsys):
    """Every entry a run leaves is its key's uncached result, and every key
    and interned value still hashes as a fresh copy of itself: nothing
    mutated a shared value."""
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    for (cls, value), out in scalar._INTERNED.items():
        assert type(out) is cls and out is value
        assert hash(_fresh(out)) == hash(out) and _fresh(out) == out
    counts = []
    for table, op in scalar.MEMOS:
        for (a, b), out in table.items():
            fa, fb = _fresh(a), _fresh(b)
            assert hash(fa) == hash(a) and hash(fb) == hash(b)
            assert table[fa, fb] is out
            again = op(fa, fb)
            assert type(again) is type(out) and again == out
        counts.append(len(table))
    assert all(counts[:3])  # the Scalar tables
    assert any(counts[3:]) == ("--zeta=w" in argv)
    if "coideal" in argv:  # a Scalar operand is keyed as it is
        assert any(isinstance(b, Scalar) for table, _ in scalar.MEMOS[3:] for a, b in table)
