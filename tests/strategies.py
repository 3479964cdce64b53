"""Hypothesis strategies and element constructors shared by the tests."""

from hypothesis import strategies as st

from qfodc.cyclotomic import CycElem, CycRing
from qfodc.scalar import Scalar, ZERO, _cancel, _pmul

_UNIT = {0: 1}


def from_fraction(a, b):
    """The rational number a/b as a Scalar."""
    return Scalar({0: a} if a else {}, {0: b})


def from_coeffs(ring, coeffs):
    """The element sum_i coeffs[i] x^i of ring, coefficients Scalars."""
    coeffs = list(coeffs)
    assert len(coeffs) <= ring.degree
    coeffs += [ZERO] * (ring.degree - len(coeffs))
    dens = []
    for c in coeffs:
        if c.den != _UNIT and c.den not in dens:
            dens.append(c.den)
    if not dens:
        return CycElem(ring, tuple(c.num for c in coeffs), _UNIT)
    nums = []
    for c in coeffs:
        n = c.num
        for d in dens:
            if d != c.den:
                n = _pmul(n, d)
        nums.append(n)
    den = dens[0]
    for d in dens[1:]:
        den = _pmul(den, d)
    den, nums = _cancel(den, nums)
    return CycElem(ring, tuple(nums), den)


def _polys(min_exp, max_exp):
    return st.dictionaries(
        st.integers(min_exp, max_exp), st.integers(-5, 5).filter(bool),
        min_size=1, max_size=3,
    )


def scalars():
    """Small nonzero Scalars: Laurent numerators, sometimes a denominator."""
    return st.builds(Scalar, _polys(-3, 3), st.just({0: 1}) | _polys(0, 2))


def cyc_coeffs(order):
    """Coefficient lists for CycRing(order).  Each coefficient is zero (so
    rational elements occur), a fraction over one denominator drawn for the
    whole list (shared, up to what each fraction cancels), or an independent
    Scalar with its own denominator."""
    degree = CycRing(order).degree

    def over(den):
        shared = st.builds(Scalar, _polys(-3, 3), st.just(den))
        return st.lists(st.just(ZERO) | shared | scalars(),
                        min_size=degree, max_size=degree)

    return _polys(0, 2).flatmap(over)


def cyc_elems(order):
    """Elements of CycRing(order) with cyc_coeffs(order) coefficients."""
    ring = CycRing(order)
    return cyc_coeffs(order).map(lambda coeffs: from_coeffs(ring, coeffs))
