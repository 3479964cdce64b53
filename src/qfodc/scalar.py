"""Exact arithmetic in the field Q(p) of rational functions over the integers.

Every quantity in this package is a Scalar: a quotient num/den of integer
Laurent polynomials in the formal parameter p, kept in canonical form.  The
deformation parameter of the quantum group is q = p^N for the A series (so
that the N-th root z = p^{-1} of q^{-1} is an honest field element) and
q = p for the C series.

Internally num is a sparse Laurent polynomial (exponents may be negative)
and den is an ordinary polynomial with nonzero constant term and positive
leading coefficient, coprime to num.  Arithmetic is exact; there is no
floating point anywhere.

One fraction kernel computes that form for Scalar and for the cyclotomic
CycElem, which keeps several numerators over one shared denominator:
`_cancel` divides out integer content and the polynomial gcd, `_sum` adds
two fractions and `_scale` multiplies by one.  The sum takes no gcd when a
denominator is 1 (a/d + b = (a + b d)/d is canonical), and the product
cancels crosswise before it multiplies (Henrici 1956; Knuth, TAOCP vol. 2,
4.5.1), so only its smaller factors meet a gcd.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd as _igcd


# ---------------------------------------------------------------------------
# sparse integer (Laurent) polynomial helpers: dicts {exponent: coefficient}
# ---------------------------------------------------------------------------

def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _pneg(a):
    return {e: -c for e, c in a.items()}

def _psub(a, b):
    return _padd(a, _pneg(b))


def _pmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _pscale(a, k):
    if k == 0:
        return {}
    return {e: c * k for e, c in a.items()}


def _pshift(a, k):
    if k == 0:
        return dict(a)
    return {e + k: c for e, c in a.items()}


def _pcontent(a):
    g = 0
    for c in a.values():
        g = _igcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _pval(a):
    return min(a) if a else 0


def _pdeg(a):
    return max(a) if a else 0


def _to_dense(a):
    """Laurent dict with min exponent 0 -> ascending dense list."""
    n = _pdeg(a)
    out = [0] * (n + 1)
    for e, c in a.items():
        out[e] = c
    return out


def _to_dict(lst):
    return {e: c for e, c in enumerate(lst) if c}


def _dense_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _dense_prem(a, b):
    """Pseudo-remainder of dense int polys (ascending), lc(b)^k * a mod b."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for i in range(db + 1):
            a[da - db + i] -= la * b[i]
        _dense_trim(a)
    return a


def _dense_primitive(a):
    g = 0
    for c in a:
        g = _igcd(g, abs(c))
        if g == 1:
            return list(a)
    if g <= 1:
        return list(a)
    return [c // g for c in a]


def _poly_gcd(a, b):
    """Gcd of two polynomial dicts (min exponent 0), primitive PRS over Z.

    Returns a primitive gcd with positive leading coefficient.
    """
    da, db = _to_dense(a), _to_dense(b)
    _dense_trim(da)
    _dense_trim(db)
    if not da:
        return _to_dict(_dense_primitive(db))
    if not db:
        return _to_dict(_dense_primitive(da))
    if len(da) < len(db):
        da, db = db, da
    da, db = _dense_primitive(da), _dense_primitive(db)
    while db:
        r = _dense_prem(da, db)
        da, db = db, _dense_primitive(r)
    if da[-1] < 0:
        da = [-c for c in da]
    return _to_dict(da)


def _poly_exact_div(a, b):
    """Exact division a / b of polynomial dicts; raises if not exact."""
    da, db = _to_dense(a), _to_dense(b)
    _dense_trim(da)
    _dense_trim(db)
    if not db:
        raise ZeroDivisionError("polynomial division by zero")
    if not da:
        return {}
    out = [0] * (len(da) - len(db) + 1)
    lb = db[-1]
    while len(da) >= len(db):
        la = da[-1]
        if la % lb:
            raise ArithmeticError("inexact polynomial division")
        k = len(da) - len(db)
        coef = la // lb
        out[k] = coef
        for i in range(len(db)):
            da[k + i] -= coef * db[i]
        _dense_trim(da)
        if not da:
            break
    if da:
        raise ArithmeticError("inexact polynomial division")
    return _to_dict(out)


_UNIT = {0: 1}


def _addmul_into(acc, a, b, k):
    """acc += k * a * b for Laurent dicts, in place, dropping zeros."""
    for ea, ca in a.items():
        ca *= k
        for eb, cb in b.items():
            e = ea + eb
            s = acc.get(e, 0) + ca * cb
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)


def _addmul(a, b, c, sign):
    """a + sign * b * c as a new Laurent dict."""
    out = dict(a)
    _addmul_into(out, b, c, sign)
    return out


# ---------------------------------------------------------------------------
# the fraction kernel: Scalar holds one numerator over its denominator and
# CycElem several over one shared denominator; both keep (den, nums) in one
# canonical form and compute it only here
# ---------------------------------------------------------------------------

def _cancel(den, nums):
    """(den, nums) divided by their greatest common divisor in Z[p]: one
    integer content and one polynomial gcd against all numerators together.
    den must have a nonzero constant term and a positive leading coefficient,
    and some numerator must be nonzero."""
    g = _pcontent(den)
    for n in nums:
        if g == 1:
            break
        if n:
            g = _igcd(g, _pcontent(n))
    if g > 1:
        nums = [{e: c // g for e, c in n.items()} for n in nums]
        den = {e: c // g for e, c in den.items()}
    # den(0) != 0, so a monomial numerator is prime to den
    if len(den) == 1 or any(len(n) == 1 for n in nums):
        return den, nums
    g = den
    for n in nums:
        if n:
            g = _poly_gcd(_pshift(n, -_pval(n)), g)
            if len(g) == 1:
                return den, nums
    den = _poly_exact_div(den, g)
    nums = [_pshift(_poly_exact_div(_pshift(n, -_pval(n)), g), _pval(n))
            if n else n for n in nums]
    return den, nums


def _sum(da, an, db, bn, sign):
    """an/da + sign * bn/db for canonical fractions, numerators taken
    pairwise, as a canonical (den, nums)."""
    if da == db:
        op = _padd if sign > 0 else _psub
        nums = [op(a, b) for a, b in zip(an, bn)]
        if da == _UNIT or not any(nums):
            return _UNIT, nums
        return _cancel(da, nums)
    if db == _UNIT:
        # a/da + b = (a + b da)/da, and gcd(da, a + b da) = gcd(da, a) = 1
        return da, [_addmul(a, b, da, sign) for a, b in zip(an, bn)]
    if da == _UNIT:
        return db, [_addmul(_pscale(b, sign), a, db, 1) for a, b in zip(an, bn)]
    return _cancel(_pmul(da, db),
                   [_addmul(_pmul(a, db), b, da, sign) for a, b in zip(an, bn)])


def _scale(den, nums, n, d):
    """nums/den * n/d for canonical fractions, n and some numerator nonzero,
    as a canonical (den, nums).  Cancelling n against den and d against nums
    leaves the product canonical: a prime factor of either denominator
    divides neither n nor every numerator."""
    if den != _UNIT:
        den, (n,) = _cancel(den, [n])
    if d != _UNIT:
        d, nums = _cancel(d, nums)
        den = d if den == _UNIT else _pmul(den, d)
    if len(n) == 1:  # a monomial c p^e: shift and scale
        (e, c), = n.items()
        return den, [{k + e: v * c for k, v in a.items()} for a in nums]
    return den, [_pmul(n, a) if a else a for a in nums]


def _reduce(num, den):
    """Bring a num/den pair of Laurent dicts to canonical form."""
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        return {}, _UNIT
    # move all p powers into num: den becomes a poly with den(0) != 0
    dv = _pval(den)
    if dv:
        den = _pshift(den, -dv)
        num = _pshift(num, -dv)
    if den[_pdeg(den)] < 0:
        den = _pneg(den)
        num = _pneg(num)
    den, (num,) = _cancel(den, [num])
    return num, den


# ---------------------------------------------------------------------------
# memoised field operations
# ---------------------------------------------------------------------------

# Each binary operation of Scalar and CycElem keeps one table from an operand
# pair to the canonical result of the uncached helper, and every result is
# interned by (class, value), so that equal operands are mostly one object and
# a lookup seldom compares them (hash-consing).  Results are shared between
# callers, so nothing may mutate the num/den dicts (or a CycElem's nums) of an
# operand or a result.  Each class has its own tables, keyed on a first
# operand of that class: a rational CycElem equals its Scalar and hashes like
# it, so one shared table could answer a Scalar product with a CycElem.  The
# same equality lets a CycElem table take a Scalar second operand as it is.
# A hit only saves time; the result never depends on it.

MEMO_CAP = 1 << 16  # entries per table; a table that reaches it is emptied
MEMOS = []  # (table, uncached helper) for every memoised operation
_INTERNED = {}  # (class, value) -> the one shared result equal to value


def _memo_table(op):
    table = {}
    MEMOS.append((table, op))
    return table


def clear_memos():
    """Empty every memo table, the cyclotomic ones included.  cli.main calls
    it on entry, so each run pays the cold cost; a library caller may call it
    to release the memory."""
    for table, _ in MEMOS:
        table.clear()
    _INTERNED.clear()


def _memo(table, op, a, b):
    key = (a, b)
    out = table.get(key)
    if out is None:
        out = op(a, b)
        if len(_INTERNED) >= MEMO_CAP:
            _INTERNED.clear()
        out = _INTERNED.setdefault((out.__class__, out), out)
        if len(table) >= MEMO_CAP:
            table.clear()
        table[key] = out
    return out


class Scalar:
    """An element of Q(p), immutable and always canonical."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = {0: 1}
        if not _canonical:
            num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(k):
        return Scalar({0: k} if k else {}, {0: 1}, _canonical=True)

    @staticmethod
    def p_power(k):
        """The monomial p^k (k may be negative)."""
        return Scalar({k: 1}, {0: 1}, _canonical=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == _UNIT and self.den == _UNIT

    def complexity(self):
        """Number of terms of num and den (pivot weight in linalg)."""
        return len(self.num) + len(self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return _memo(_ADD, Scalar._add, self, other)

    def _add(self, other, sign=1):
        den, (num,) = _sum(self.den, (self.num,), other.den, (other.num,), sign)
        return Scalar(num, den, _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return _memo(_SUB, Scalar._sub, self, other)

    def _sub(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return Scalar(_pneg(self.num), dict(self.den), _canonical=True)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return _memo(_MUL, Scalar._mul, self, other)

    def _mul(self, other):
        if not self.num or not other.num:
            return ZERO
        # a canonical factor 1 leaves the other one as it is
        if self.is_one():
            return other
        if other.is_one():
            return self
        den, (num,) = _scale(self.den, (self.num,), other.num, other.den)
        return Scalar(num, den, _canonical=True)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inversion of zero scalar")
        return Scalar(dict(self.den), dict(self.num))

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k):
        if k == 0:
            return ONE
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((frozenset(self.num.items()), frozenset(self.den.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        num, den = self.num, self.den
        v = _pval(num)
        if v < 0:
            num = _pshift(num, -v)
            den = _pshift(den, -v)
        ns = _poly_str(num)
        if den == {0: 1}:
            return ns
        ds = _poly_str(den)
        if len(num) > 1:
            ns = "(" + ns + ")"
        de = _pdeg(den)
        if len(den) > 1 or (de > 0 and den[de] != 1):
            ds = "(" + ds + ")"
        return ns + "/" + ds

    def __repr__(self):
        return f"Scalar({self})"


def _poly_str(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        c = a[e]
        if e == 0:
            t = str(abs(c))
        else:
            t = "p" if e == 1 else f"p^{e}"
            if abs(c) != 1:
                t = str(abs(c)) + t
        if not parts:
            parts.append(("-" if c < 0 else "") + t)
        else:
            parts.append(("-" if c < 0 else "+") + t)
    return "".join(parts)


_TERM_RE = re.compile(r"^([+-]?)(\d*)(?:\*?(p)(?:\^([+-]?\d+))?)?$")


def _parse_poly(s):
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and i < len(s) - 1:
                break
        else:
            s = s[1:-1]
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    out = {}
    for t in terms:
        m = _TERM_RE.match(t)
        if not m:
            raise ValueError(f"cannot parse term {t!r}")
        sign, coef, pvar, exp = m.groups()
        if not coef and not pvar:
            raise ValueError(f"cannot parse term {t!r}")
        c = int(coef) if coef else 1
        if sign == "-":
            c = -c
        e = 0
        if pvar:
            e = int(exp) if exp is not None else 1
        out = _padd(out, {e: c})
    return out


def parse_scalar(s):
    """Parse the canonical text rendering back into a Scalar (exact)."""
    s = s.strip().replace(" ", "")
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return Scalar(_parse_poly(s[:i]), _parse_poly(s[i + 1:]))
    return Scalar(_parse_poly(s))


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)
MINUS_ONE = Scalar.from_int(-1)

_ADD = _memo_table(Scalar._add)
_SUB = _memo_table(Scalar._sub)
_MUL = _memo_table(Scalar._mul)


# ---------------------------------------------------------------------------
# field configuration
# ---------------------------------------------------------------------------

class UnsupportedConfigError(ValueError):
    pass


# The largest matrix size N, checked where N enters, before the N^2 x N^2
# R-matrix is built and inverted.  The cost grows steeply with N: `build
# --corep u` takes 0.9 s of process time at SL_q(16) and 1.5 s at Sp_q(16),
# against 4.8 s at SL_q(24) and 8.0 s at Sp_q(24) (2-CPU x86-64 Linux host,
# Python 3.11).  The CLI's tests, CI and benchmark use N <= 7.
MAX_N = 16


@dataclass(frozen=True)
class FieldConfig:
    """Ground data of one quantum group: series and matrix size.

    Series A is SL_q(N) with q = p^N and the root z = p^{-1} that
    normalizes the universal r-form (so z^N = q^{-1} holds identically in
    Q(p)); series C is Sp_q(2n) with q = p and z = 1.
    """

    series: str
    N: int

    def __post_init__(self):
        if self.series == "A":
            if self.N < 2:
                raise UnsupportedConfigError("series A needs N >= 2")
        elif self.series == "C":
            if self.N < 2 or self.N % 2:
                raise UnsupportedConfigError("series C needs N = 2n, n >= 1")
        else:
            raise UnsupportedConfigError(f"unknown series {self.series!r}")
        if self.N > MAX_N:
            raise UnsupportedConfigError(
                f"matrix size N = {self.N} is above the supported maximum {MAX_N}"
            )

    @staticmethod
    def sl(N):
        return FieldConfig("A", N)

    @staticmethod
    def sp(n):
        return FieldConfig("C", 2 * n)

    @property
    def rank(self):
        """Rank n of the underlying simple Lie algebra."""
        return self.N - 1 if self.series == "A" else self.N // 2

    @property
    def zeta_order(self):
        """Admissible zeta satisfy zeta^order = 1."""
        return self.N if self.series == "A" else 2

    @property
    def root_exponent(self):
        """The exponent e of q = p^e."""
        return self.N if self.series == "A" else 1

    @property
    def q(self):
        return Scalar.p_power(self.root_exponent)

    @property
    def z(self):
        return Scalar.p_power(-1) if self.series == "A" else ONE

    def __str__(self):
        if self.series == "A":
            return f"SL_q({self.N})"
        return f"Sp_q({self.N})"
