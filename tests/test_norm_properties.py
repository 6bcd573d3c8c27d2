"""Property test: the 2 x 2 operator norms of build_box_map's padding."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from endolab.conley import _operator_norms  # noqa: E402


def slack(x):
    """2e-15 relative, or one unit in the last place of x, which is coarser
    where x is subnormal."""
    return np.maximum(2e-15 * x, np.spacing(x))


@st.composite
def scaled_matrices(draw):
    """Random complex 2 x 2 matrices, each scaled by 2^k for a random k from
    the subnormal range (2^-1074 is the least positive double) to 2^1000."""
    rows = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.lists(st.integers(-1060, 1000), min_size=rows,
                      max_size=rows))
    jac = rng.normal(size=(rows, 2, 2)) + 1j * rng.normal(size=(rows, 2, 2))
    jac.real = np.ldexp(jac.real, np.array(k)[:, None, None])
    jac.imag = np.ldexp(jac.imag, np.array(k)[:, None, None])
    return jac


@given(scaled_matrices())
def test_norm_is_the_largest_singular_value(jac):
    got = _operator_norms(jac)
    want = np.linalg.svd(jac, compute_uv=False).max(axis=-1)
    assert (np.abs(got - want) <= slack(want)).all()
    # np.abs and np.hypot rescale, so these norms neither overflow nor
    # underflow where the squared entries would
    columns = np.hypot.reduce(np.abs(jac), axis=1)  # (N, 2)
    frobenius = np.hypot.reduce(columns, axis=1)
    column = columns.max(axis=1)
    assert (got >= column - slack(column)).all()
    assert (got <= frobenius + slack(frobenius)).all()
