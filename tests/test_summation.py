"""The exact summation kernel, the probe tree sum and the row max against their oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeset import corpus
from gaugeset.integrators import (
    _SUM_BLOCK,
    _fsum,
    _fsum_at_most,
    _fsum_columns,
    _row_max,
    _tree_sum_columns,
)
from gaugeset.partitions import cousin_build


def _fsum_oracle(x):
    return np.array([math.fsum(x[:, k].tolist()) for k in range(x.shape[1])])


def _tree_oracle(terms):
    """The pairwise reduction as first written: halve, carrying an odd last row."""
    x = np.ascontiguousarray(terms, dtype=np.float64)
    while x.shape[0] > 1:
        if x.shape[0] % 2:
            x = np.vstack([x[:-1:2] + x[1::2], x[-1:]])
        else:
            x = x[::2] + x[1::2]
    return x[0]


def _outcome(fn, x):
    """Result bits, or the type and message of the error raised."""
    try:
        return fn(x).view(np.int64).tolist()
    except (OverflowError, ValueError) as e:
        return type(e), str(e)


@st.composite
def _matrices(draw):
    n = draw(st.sampled_from([0, 1, 3, 7, 255, 1025, 4097]) | st.integers(0, 40))
    m = draw(st.sampled_from([1, 2, 3, 64]))
    lo = draw(st.integers(-1074, 900))
    hi = draw(st.integers(lo, 900))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(0.5, 1.0, (n, m)) * np.exp2(rng.integers(lo, hi + 1, (n, m)))
    x *= rng.choice([-1.0, 1.0], (n, m))
    if draw(st.booleans()):  # cancelling pairs
        x[n // 2:2 * (n // 2)] = -x[:n // 2]
    x[rng.uniform(size=(n, m)) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = -0.0
    return x


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_fsum_columns_equals_math_fsum_bitwise(x):
    assert _outcome(_fsum_columns, x) == _outcome(_fsum_oracle, x)


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 2.0 ** 990]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3]))
def test_fsum_columns_falls_back_on_inf_nan_and_huge(x, special, seed, blocks):
    """A column with inf, nan or a huge value keeps math.fsum: same value, same error.

    With ``blocks`` 3, x is tiled over three extraction blocks and more, and
    the specials land in more than one of them; _fsum of a column split into
    parts at random cuts must give math.fsum's outcome too.
    """
    if x.size == 0:
        return
    rng = np.random.default_rng(seed)
    n, m = x.shape
    x = x.copy()
    if blocks > 1:
        per_block = max(1, _SUM_BLOCK // m)
        x = np.resize(x, (blocks * per_block + 5, m))
        rows = [int(rng.integers(b * per_block, (b + 1) * per_block)) for b in range(blocks)]
        rows = rng.choice(rows, int(rng.integers(2, blocks + 1)), replace=False)
    else:
        rows = rng.choice(n, int(rng.integers(1, min(4, n) + 1)), replace=False)
    col = int(rng.integers(0, m))
    x[rows, col] = special * rng.choice([-1.0, 1.0], len(rows))
    assert _outcome(_fsum_columns, x) == _outcome(_fsum_oracle, x)
    parts = np.split(x[:, col], np.sort(rng.integers(0, len(x) + 1, 3)))
    want = _outcome(_fsum_oracle, x[:, col:col + 1])
    assert _outcome(lambda _: np.array([_fsum(*parts)]), x) == want


def test_fsum_columns_named_failures():
    inf_pair = np.array([[math.inf, 1.0], [-math.inf, 2.0]])
    with pytest.raises(ValueError, match="-inf \\+ inf in fsum"):
        _fsum_columns(inf_pair)
    with pytest.raises(OverflowError, match="intermediate overflow"):
        _fsum_columns(np.array([[1e308], [1e308], [-1e308]]))
    assert math.isnan(_fsum_columns(np.array([[math.nan, 1.0]]))[0])
    assert _fsum_columns(np.array([[-0.0], [-0.0]]))[0].hex() == (0.0).hex()
    assert _fsum_columns(np.empty((0, 3))).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("n, m", [(70001, 2), (3001, 64)])
def test_fsum_of_many_rows_is_row_order_free(n, m):
    """More rows than one extraction block, summed in two orders."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(n, m)) * np.exp2(rng.integers(-60, 60, size=(n, m)))
    want = _fsum_oracle(x)
    assert _fsum_columns(x).view(np.int64).tolist() == want.view(np.int64).tolist()
    assert _fsum_columns(x[::-1]).view(np.int64).tolist() == want.view(np.int64).tolist()
    assert _fsum(x[:, 1]) == want[1]


@pytest.mark.parametrize("m", [1, 2, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1537, 4097])
def test_tree_sum_columns_matches_first_pairing(n, m):
    x = np.random.default_rng(n * 100 + m).normal(scale=1e3, size=(n, m))
    assert _tree_sum_columns(x).view(np.int64).tolist() == \
        _tree_oracle(x).view(np.int64).tolist()


@pytest.mark.parametrize("m", [1, 2, 3, 5, 31, 32, 64])
def test_row_max_matches_np_max(m):
    a = np.abs(np.random.default_rng(m).normal(size=(999, m)))
    a[::7, m // 2] = np.nan
    np.testing.assert_array_equal(_row_max(a), np.max(a, axis=1))


def test_variational_gap_sum_matches_first_formula():
    """G1 against its exact primitive on the finest vh-origin partition."""
    g1 = corpus.corpus_get("G1")
    P = cousin_build(corpus.named_schedule("vh-origin").levels[-1], tag_order="left")
    cells = g1.exact_primitive().query_batch(P.a, P.b)
    gaps = np.abs(cells - g1.eval_support(P.t) * P.widths[:, None])
    want = math.fsum(np.max(gaps, axis=1).tolist())
    assert _fsum(_row_max(gaps)) == want


@st.composite
def _gap_vectors(draw):
    """Nonnegative vectors with zeros, subnormals and values up to about 1e300."""
    n = draw(st.sampled_from([1, 2, 3, 255, 4097, 1 << 16]) | st.integers(1, 40))
    lo = draw(st.integers(-1074, 996))
    hi = draw(st.integers(lo, 996))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(0.5, 1.0, n) * np.exp2(rng.integers(lo, hi + 1, n))
    x[rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    if draw(st.booleans()):
        k = rng.integers(0, n, max(1, n // 8))
        x[k] = rng.integers(1, 1 << 52, len(k)) * 2.0 ** -1074  # subnormal
    return x


@settings(max_examples=300, deadline=None)
@given(_gap_vectors())
def test_fsum_at_most_never_skips_a_larger_sum(x):
    """Whenever the float bound answers True, math.fsum(x) <= ref holds."""
    exact = math.fsum(x.tolist())
    approx = float(np.sum(x))
    loose = approx * (1.0 + len(x) * 2.0 ** -50)
    for base in (exact, approx, loose, 0.0, 5e-324, 1e300):
        for ulps in (0, 1, -1, 3, -3, 64, -64):
            ref = base
            for _ in range(abs(ulps)):
                ref = math.nextafter(ref, math.copysign(math.inf, ulps))
            if _fsum_at_most([x], ref):
                assert exact <= ref, (base, ulps)
    if exact > 1e-290:  # the bound is not vacuous: twice the sum is shown
        assert _fsum_at_most([x], 2.0 * exact)


@pytest.mark.parametrize("x, ref", [
    ([1.0, math.nan], 1e300),
    ([1.0, math.inf], math.inf),
    ([1e308, 1e308], math.inf),
    ([1.0], math.inf),
    ([], 0.0),
])
def test_fsum_at_most_takes_the_exact_path_on_nan_and_inf(x, ref):
    assert _fsum_at_most([np.array(x)], ref) is (len(x) == 0)
