"""Property test: map_kernel's row blocks keep every row's bits."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from endolab import maps  # noqa: E402
from endolab.maps import map_kernel  # noqa: E402
from test_maps import random_map, words  # noqa: E402


@st.composite
def kernel_calls(draw):
    """A random map (n <= 3, degree <= 5), a block size, a batch of about a
    multiple of it with some rows that overflow, a scalar or per-point m
    and a jacobian mode."""
    n, degree = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = draw(st.integers(1, 9))
    rows = max(1, draw(st.integers(1, 4)) * block + draw(st.integers(-1, 1)))
    scale = draw(st.lists(st.sampled_from([0.6, 1e20, 1e200]),
                          min_size=rows, max_size=rows))
    pts = np.asarray(scale)[:, None] * (rng.normal(size=(rows, n))
                                        + 1j * rng.normal(size=(rows, n)))
    if draw(st.booleans()):
        m = np.sort(draw(st.lists(st.integers(1, 4), min_size=rows,
                                  max_size=rows)))[::-1]
    else:
        m = draw(st.integers(0, 4))
    jacobian = draw(st.sampled_from([False, True, "seed"]))
    if jacobian == "seed":
        jacobian = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return random_map(n, degree, rng=rng), block, pts, m, jacobian


@given(kernel_calls())
def test_blocked_kernel_matches_one_row_calls(call):
    f, block, pts, m, jacobian = call
    with mock.patch.object(maps, "_BLOCK_ROWS", block):
        got = map_kernel(f, pts, m, jacobian=jacobian)
    for i in range(len(pts)):
        one = map_kernel(f, pts[i], int(m[i]) if np.ndim(m) else m,
                         jacobian=jacobian)
        for a, b in zip(got, one):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(words(a[i]), words(b))
