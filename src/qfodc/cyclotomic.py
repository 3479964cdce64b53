"""Exact roots of unity over Q(p).

Admissible twist characters need zeta with zeta^N = 1.  For N <= 2 these are
rational; beyond that we work in the cyclotomic extension Q(p)[x]/Phi_N(x),
whose elements are short polynomials in the root with Scalar coefficients.
Phi_N is irreducible over Q and stays irreducible over the purely
transcendental extension Q(p), so every nonzero element is invertible.
"""

from __future__ import annotations

from .scalar import ONE, Scalar, ZERO


class InvalidCharacterError(ValueError):
    pass


def cyclotomic_coeffs(n):
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    # x^n - 1 = prod_{d | n} Phi_d; divide out the proper divisors.
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        phi_d = cyclotomic_coeffs(d)
        num = _exact_div_int(num, phi_d)
    return num


def _exact_div_int(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        c = a[-1] // b[-1]
        out[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
    assert not any(a), "inexact cyclotomic division"
    return out


class CycRing:
    """Q(p)[x]/Phi_n(x); instances are interned per order."""

    _cache = {}

    def __new__(cls, order):
        if order in cls._cache:
            return cls._cache[order]
        self = super().__new__(cls)
        self.order = order
        mod = cyclotomic_coeffs(order)
        self.degree = len(mod) - 1
        self.modulus = mod
        # reduction of x^k for k = degree .. 2*degree-2 as int-coeff rows
        red = {}
        for k in range(self.degree, 2 * self.degree - 1):
            if k == self.degree:
                row = [-c for c in mod[:-1]]
            else:
                prev = red[k - 1]
                row = [0] + prev[:-1]
                top = prev[-1]
                if top:
                    row = [r - top * c for r, c in zip(row, mod[:-1])]
            red[k] = row
        self._reduction = red
        self.zero = CycElem(self, (ZERO,) * self.degree)
        self.one = CycElem(self, (ONE,) + (ZERO,) * (self.degree - 1))
        cls._cache[order] = self
        return self

    def lift(self, s):
        return CycElem(self, (s,) + (ZERO,) * (self.degree - 1))

    def from_coeffs(self, coeffs):
        coeffs = list(coeffs)
        assert len(coeffs) <= self.degree
        coeffs += [ZERO] * (self.degree - len(coeffs))
        return CycElem(self, tuple(coeffs))

    def root_power(self, j):
        """x^j mod Phi_n as a ring element."""
        j %= self.order
        out = [ZERO] * self.degree
        if j < self.degree:
            out[j] = ONE
            return CycElem(self, tuple(out))
        elem = self.from_coeffs([ZERO] * (self.degree - 1) + [ONE])  # x^(deg-1)
        for _ in range(j - (self.degree - 1)):
            elem = elem._shift_up()
        return elem

    def __repr__(self):
        return f"CycRing({self.order})"


class CycElem:
    """Element of a CycRing: polynomial of degree < deg in the root."""

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs
        self._hash = None

    def _shift_up(self):
        """Multiply by the root symbol x."""
        ring = self.ring
        d = ring.degree
        work = [ZERO] + list(self.coeffs)
        if not work[d].is_zero():
            top = work.pop()
            red = ring._reduction[d]
            work = [w + top * Scalar.from_int(c) for w, c in zip(work, red)]
        else:
            work.pop()
        return CycElem(ring, tuple(work))

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def rational_part(self):
        """The element as a Scalar if it lies in Q(p), else None."""
        if all(c.is_zero() for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def complexity(self):
        return sum(len(c.num) + len(c.den) for c in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, CycElem):
            if other.ring is not self.ring:
                raise TypeError("mixed cyclotomic rings")
            return other
        if isinstance(other, Scalar):
            return self.ring.lift(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycElem(self.ring, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycElem(self.ring, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycElem(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        d = ring.degree
        prod = [ZERO] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                if not b.is_zero():
                    prod[i + j] = prod[i + j] + a * b
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c.is_zero():
                continue
            red = ring._reduction[k]
            out = [w + c * Scalar.from_int(r) for w, r in zip(out, red)]
        return CycElem(ring, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """Inverse via extended Euclid against the (irreducible) modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero cyclotomic element")
        ring = self.ring
        mod = [Scalar.from_int(c) for c in ring.modulus]
        a = list(self.coeffs)
        # Bezout: s*a + t*mod = gcd = const
        r0, r1 = mod, _trim(a)
        s0, s1 = [ZERO], [ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        c = r1[0].inverse()
        out = [c * v for v in s1]
        out += [ZERO] * (ring.degree - len(out))
        return CycElem(ring, tuple(out[: ring.degree]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = self.ring.lift(other)
        if not isinstance(other, CycElem) or other.ring is not self.ring:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.order, self.coeffs))
        return self._hash

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


def _trim(a):
    a = list(a)
    while len(a) > 1 and a[-1].is_zero():
        a.pop()
    return a


def _poly_divmod(a, b):
    a = _trim(a)
    b = _trim(b)
    q = [ZERO] * max(1, len(a) - len(b) + 1)
    inv = b[-1].inverse()
    while len(a) >= len(b) and not (len(a) == 1 and a[0].is_zero()):
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i in range(len(b)):
            a[k + i] = a[k + i] - c * b[i]
        a = _trim(a)
        if all(v.is_zero() for v in a):
            a = [ZERO]
    return _trim(q), _trim(a)


def _poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [ZERO] * (n - len(a))
    b = list(b) + [ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# admissible characters
# ---------------------------------------------------------------------------

class Zeta:
    """A root of unity zeta_order^index, stored exactly.

    `value` is a Scalar when the root is rational (orders 1 and 2 and the
    rational powers of higher roots) and a CycElem otherwise.
    """

    __slots__ = ("order", "index", "value")

    def __init__(self, order, index):
        index %= order
        g = _gcd(index, order) if index else order
        self.order = order // g
        self.index = (index // g) % self.order if self.order > 1 else 0
        if self.order == 1:
            self.value = ONE
        elif self.order == 2:
            self.value = Scalar.from_int(-1)
        else:
            ring = CycRing(self.order)
            self.value = ring.root_power(self.index)
            rat = self.value.rational_part()
            if rat is not None:
                self.value = rat

    def is_one(self):
        return self.order == 1

    def is_rational(self):
        return isinstance(self.value, Scalar)

    def power_value(self, m):
        """zeta^m as a Scalar or CycElem."""
        return Zeta(self.order, self.index * m).value if m else ONE

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


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def admissible_zeta(config, root_order, power=1):
    """The character index zeta = zeta_root_order^power, checked against the
    admissibility condition zeta^(zeta_order) = 1 of the configuration."""
    z = Zeta(root_order, power)
    if config.zeta_order % z.order:
        raise InvalidCharacterError(
            f"zeta = {z} is not admissible for {config}: "
            f"need zeta^{config.zeta_order} = 1"
        )
    return z


def all_admissible(config):
    """All admissible characters for the configuration, 1 first."""
    n = config.zeta_order
    return [Zeta(n, j) for j in range(n)]
