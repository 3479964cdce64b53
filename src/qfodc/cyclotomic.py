"""Exact roots of unity over Q(p).

Admissible twist characters need zeta with zeta^N = 1.  For N <= 2 these are
rational; beyond that we work in the cyclotomic extension Q(p)[x]/Phi_N(x),
whose elements are short polynomials in the root with coefficients in Q(p),
stored over one shared denominator.
Phi_N is irreducible over Q and stays irreducible over the purely
transcendental extension Q(p), so every nonzero element is invertible.
"""

from __future__ import annotations

from math import gcd as _igcd, lcm as _lcm

from .scalar import (
    ONE, Scalar, _UNIT, _addmul_into, _cancel, _memo, _memo_table, _pmul,
    _pneg, _poly_exact_div, _scale, _sum, _to_dense, _to_dict,
)


class InvalidCharacterError(ValueError):
    pass


def cyclotomic_coeffs(n):
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    # x^n - 1 = prod_{d | n} Phi_d; divide out the proper divisors.
    num = {0: -1, n: 1}
    for d in range(1, n):
        if n % d == 0:
            num = _poly_exact_div(num, _to_dict(cyclotomic_coeffs(d)))
    return _to_dense(num)


class CycRing:
    """Q(p)[x]/Phi_n(x); instances are interned per order."""

    _cache = {}

    def __new__(cls, order):
        if order in cls._cache:
            return cls._cache[order]
        self = super().__new__(cls)
        self.order = order
        mod = cyclotomic_coeffs(order)
        d = self.degree = len(mod) - 1
        self.modulus = mod
        # x^j mod Phi_n for j < order as integer rows; x^order = 1
        row = [1] + [0] * (d - 1)
        roots = [row]
        for _ in range(order - 1):  # multiply by x, reduce by the modulus
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [r - top * m for r, m in zip(row, mod)]
            roots.append(row)
        self._roots = roots
        self._reduction = {k: roots[k % order] for k in range(d, 2 * d - 1)}
        # sigma_k: x -> x^k for the units k != 1 mod order; row i is x^(i k)
        self._conjugations = [[roots[i * k % order] for i in range(d)]
                              for k in range(2, order) if _igcd(k, order) == 1]
        self.zero = CycElem(self, ({},) * self.degree, _UNIT)
        self.one = self.lift(ONE)
        cls._cache[order] = self
        return self

    def lift(self, s):
        return CycElem(self, (s.num,) + ({},) * (self.degree - 1), s.den)

    def root_power(self, j):
        """x^j mod Phi_n as a ring element."""
        row = self._roots[j % self.order]
        return CycElem(self, tuple({0: c} if c else {} for c in row), _UNIT)

    def __repr__(self):
        return f"CycRing({self.order})"


class CycElem:
    """Element of a CycRing: sum_i nums[i] x^i / den for i < degree.

    nums are integer Laurent polynomials in p and den is one polynomial
    shared by all of them, in the canonical form Scalar uses for a single
    fraction: den has a nonzero constant term and a positive leading
    coefficient, and no integer or polynomial factor of den divides every
    numerator.  The form is unique, so equality compares (nums, den); an
    element of Q(p) is stored exactly as its Scalar.  The dicts are never
    mutated once an element holds them.
    """

    __slots__ = ("ring", "nums", "den", "_hash", "_complexity")

    def __init__(self, ring, nums, den):
        """nums and den must already be canonical; see scalar._cancel."""
        self.ring = ring
        self.nums = nums
        self.den = den
        self._hash = None
        self._complexity = None

    @property
    def coeffs(self):
        """The coefficients of 1, x, ..., x^(degree-1) as reduced Scalars."""
        den = self.den
        unit = den == _UNIT
        return tuple(Scalar(n, den, _canonical=unit) for n in self.nums)

    def is_zero(self):
        return not any(self.nums)

    def rational_part(self):
        """The element as a Scalar if it lies in Q(p), else None."""
        if any(self.nums[1:]):
            return None
        return Scalar(self.nums[0], self.den, _canonical=True)

    def complexity(self):
        """Total size of the reduced coefficients (pivot weight in linalg)."""
        c = self._complexity
        if c is None:
            if len(self.den) == 1:
                # a constant den only cancels integer content: supports stay
                c = sum(len(n) for n in self.nums) + self.ring.degree
            else:
                c = sum(len(s.num) + len(s.den) for s in self.coeffs)
            self._complexity = c
        return c

    def _operand(self, other):
        """other as an operand: a CycElem of this ring, or a Scalar as it is.
        A rational CycElem equals and hashes like its Scalar, so the memo
        keys (self, s) and (self, lift(s)) are one key; s is lifted only by
        a miss in _add and by s - self."""
        if isinstance(other, CycElem):
            if other.ring is not self.ring:
                raise TypeError("mixed cyclotomic rings")
            return other
        if isinstance(other, Scalar):
            return other
        return None

    def _plus(self, o):
        return self._add(o, 1)

    def _minus(self, o):
        return self._add(o, -1)

    def _add(self, o, sign):
        if isinstance(o, Scalar):
            o = self.ring.lift(o)
        den, nums = _sum(self.den, self.nums, o.den, o.nums, sign)
        return CycElem(self.ring, tuple(nums), den)

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _memo(_ADD, CycElem._plus, self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _memo(_SUB, CycElem._minus, self, o)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Scalar):  # rare; the key's first operand stays a CycElem
            o = self.ring.lift(o)
        return _memo(_SUB, CycElem._minus, o, self)

    def __neg__(self):
        return CycElem(self.ring, tuple(_pneg(n) for n in self.nums), self.den)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _memo(_MUL, CycElem._mul, self, o)

    def _mul(self, o):
        if isinstance(o, Scalar):
            return self._scaled(o.num, o.den)
        if not any(o.nums[1:]):
            return self._scaled(o.nums[0], o.den)
        if not any(self.nums[1:]):
            return o._scaled(self.nums[0], self.den)
        ring = self.ring
        d = ring.degree
        prod = [{} for _ in range(2 * d - 1)]
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(o.nums):
                    if b:
                        _addmul_into(prod[i + j], a, b, 1)
        for k in range(d, 2 * d - 1):
            top = prod[k]
            if top:
                for i, r in enumerate(ring._reduction[k]):
                    if r:
                        _addmul_into(prod[i], top, _UNIT, r)
        da, db = self.den, o.den
        den = db if da == _UNIT else da if db == _UNIT else _pmul(da, db)
        den, nums = _cancel(den, prod[:d])
        return CycElem(ring, tuple(nums), den)

    __rmul__ = __mul__

    def _scaled(self, n, d):
        """self * n/d for a canonical fraction n/d."""
        if not n or self.is_zero():
            return self.ring.zero
        den, nums = _scale(self.den, self.nums, n, d)
        return CycElem(self.ring, tuple(nums), den)

    def _conjugate(self, rows):
        """sigma_k(self), given the integer rows of sigma_k.  sigma_k is
        invertible over Z[p], so it keeps the form canonical: no gcd."""
        nums = [{} for _ in rows]
        for a, row in zip(self.nums, rows):
            if a:
                for j, r in enumerate(row):
                    if r:
                        _addmul_into(nums[j], a, _UNIT, r)
        return CycElem(self.ring, tuple(nums), self.den)

    def inverse(self):
        """Inverse through the norm.  For the numerator part A = self * den,
        c = prod sigma_k(A) over the units k != 1 and N = A c is fixed by
        every sigma_k, so it lies in Q(p); then 1/self = den c / N.  All
        products have denominator 1 and need no gcd; N is the one Scalar
        inverted."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero cyclotomic element")
        ring = self.ring
        a = CycElem(ring, self.nums, _UNIT)
        c = ring.one
        for rows in ring._conjugations:
            c = c * a._conjugate(rows)
        inv = (a * c).rational_part().inverse()
        return c._scaled(self.den, _UNIT)._scaled(inv.num, inv.den)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (self.den == other.den and self.nums[0] == other.num
                    and not any(self.nums[1:]))
        if not isinstance(other, CycElem) or other.ring is not self.ring:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        h = self._hash
        if h is None:
            rat = self.rational_part()
            if rat is not None:
                h = hash(rat)  # it equals that Scalar, so it hashes as it
            else:
                h = hash((self.ring.order,
                          tuple(frozenset(n.items()) for n in self.nums),
                          frozenset(self.den.items())))
            self._hash = h
        return h

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

    def __repr__(self):
        return f"CycElem[{self.ring.order}]({self})"


_ADD = _memo_table(CycElem._plus)
_SUB = _memo_table(CycElem._minus)
_MUL = _memo_table(CycElem._mul)


# ---------------------------------------------------------------------------
# admissible characters
# ---------------------------------------------------------------------------

class Zeta:
    """A root of unity zeta_order^index, stored exactly.

    Its values live in CycRing(ring_order), for a multiple ring_order of the
    normalised order (by default the order itself): every twist of one
    configuration and every power of it then shares that configuration's
    ring.  A value is a Scalar when it is rational (orders 1 and 2 and the
    rational powers of higher roots) and a CycElem otherwise.  Equality,
    hash and str read the normalised order and index only.
    """

    __slots__ = ("order", "index", "ring", "value")

    def __init__(self, order, index, ring_order=None):
        index %= order
        g = _igcd(index, order)
        self.order = order // g
        self.index = (index // g) % self.order if self.order > 1 else 0
        self.ring = CycRing(ring_order or self.order)
        self.value = self.power_value(1)

    def is_one(self):
        return self.order == 1

    def power_value(self, m):
        """zeta^m as a Scalar or CycElem; m may be negative.  It is the
        object ONE where zeta^m = 1, so a caller can skip the multiply."""
        if m % self.order == 0:
            return ONE
        ring = self.ring
        v = ring.root_power(self.index * m * (ring.order // self.order))
        rat = v.rational_part()
        return v if rat is None else rat

    def inverse(self):
        """zeta^-1, its values in the same ring."""
        return Zeta(self.order, -self.index, self.ring.order)

    def __truediv__(self, other):
        """self / other.  Its values live in the ring whose order is the lcm
        of both rings' orders: the configuration's ring when both twists
        come from one configuration."""
        n = _lcm(self.ring.order, other.ring.order)
        return Zeta(n, self.index * (n // self.order) - other.index * (n // other.order), n)

    def __eq__(self, other):
        return (
            isinstance(other, Zeta)
            and self.order == other.order
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.order, self.index))

    def __str__(self):
        if self.order == 1:
            return "1"
        if self.order == 2:
            return "-1"
        if self.order == 4:
            return "i" if self.index == 1 else "-i"
        return f"zeta{self.order}^{self.index}"

    __repr__ = __str__


TRIVIAL = Zeta(1, 0)


def admissible_zeta(config, root_order, power=1):
    """The character index zeta = zeta_root_order^power, checked against the
    admissibility condition zeta^(zeta_order) = 1 of the configuration."""
    z = Zeta(root_order, power)
    if config.zeta_order % z.order:
        raise InvalidCharacterError(
            f"zeta = {z} is not admissible for {config}: "
            f"need zeta^{config.zeta_order} = 1"
        )
    return Zeta(z.order, z.index, config.zeta_order)


def all_admissible(config):
    """All admissible characters for the configuration, 1 first."""
    n = config.zeta_order
    return [Zeta(n, j, n) for j in range(n)]
