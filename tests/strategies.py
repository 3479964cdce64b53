"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from qfodc.scalar import Scalar


def _polys(min_exp, max_exp):
    return st.dictionaries(
        st.integers(min_exp, max_exp), st.integers(-5, 5).filter(bool),
        min_size=1, max_size=3,
    )


def scalars():
    """Small nonzero Scalars: Laurent numerators, sometimes a denominator."""
    return st.builds(Scalar, _polys(-3, 3), st.just({0: 1}) | _polys(0, 2))
