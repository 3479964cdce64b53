"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from qfodc.cyclotomic import CycRing
from qfodc.scalar import Scalar, ZERO


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
    return cyc_coeffs(order).map(CycRing(order).from_coeffs)
