import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from betafluct.rng import (
    BLOCK_SIZE,
    RngStream,
    beta_1s_sample,
    chi_sample,
    gaussian_sample,
    replica_blocks,
)


def test_gaussian_degenerate_sd_returns_mean():
    rng = RngStream(0, 0)
    assert gaussian_sample(0.0, 0.0, rng) == 0.0
    assert gaussian_sample(3.5, 0.0, rng) == 3.5


def test_gaussian_negative_sd_rejected():
    with pytest.raises(ValueError):
        gaussian_sample(0.0, -1.0, RngStream(0, 0))


def test_gaussian_moments_beta2():
    m = 10**6
    draws = gaussian_sample(0.0, math.sqrt(2.0 / 2.0), RngStream(11, 0), size=m)
    assert abs(draws.mean()) < 4e-3  # 3 sigma CLT band, sd = 1
    assert abs(draws.var() - 1.0) < 0.005


def test_chi_mean_bracket_u4():
    # log-convexity of Gamma brackets E[chi_u] between sqrt(u-1) and sqrt(u)
    draws = chi_sample(4.0, RngStream(12, 0), size=10**6)
    assert math.sqrt(3.0) < draws.mean() < 2.0


def test_chi_squared_mean_u5():
    draws = chi_sample(5.0, RngStream(13, 0), size=10**6)
    assert abs(np.mean(draws**2) - 5.0) < 0.03


def test_chi_small_u_support():
    draws = chi_sample(0.5, RngStream(14, 0), size=10**4)
    assert np.all(draws >= 0) and np.all(np.isfinite(draws))


@pytest.mark.parametrize("u", [0.5, 1.0, 4.0, 100.0])
def test_chi_squared_moments(u):
    # chi_u^2 is Gamma(u/2, scale 2): mean u, variance 2u, and
    # Var((X-u)^2) = 8u^2 + 48u gives the CLT band for the sample variance.
    m = 10**6
    sq = chi_sample(u, RngStream(15, int(u * 10)), size=m) ** 2
    assert abs(sq.mean() - u) < 5.0 * math.sqrt(2.0 * u / m)
    assert abs(sq.var() - 2.0 * u) < 5.0 * math.sqrt((8.0 * u * u + 48.0 * u) / m)


def test_chi_domain_error():
    with pytest.raises(ValueError):
        chi_sample(0.0, RngStream(0, 0))
    with pytest.raises(ValueError):
        chi_sample(-2.0, RngStream(0, 0))


def test_chi_block_and_vector_calls_equal_one_draw_calls():
    # a block, a 1-d and a scalar call draw the same numbers, element by
    # element in C order, from the same stream
    u = np.array([0.4, 1.0, 3.3, 9.0])
    rng = RngStream(7, 3)
    one = np.array([chi_sample(x, rng) for _ in range(5) for x in u]).reshape(5, 4)
    rng = RngStream(7, 3)
    rows = np.array([chi_sample(u, rng) for _ in range(5)])
    block = chi_sample(u, RngStream(7, 3), size=(5, 4))
    assert np.ndim(chi_sample(3.3, RngStream(7, 3))) == 0
    assert np.array_equal(block, one) and np.array_equal(rows, one)


def test_beta_s1_is_uniform():
    draws = beta_1s_sample(1.0, RngStream(16, 0), size=10**5)
    stat = kstest(draws, "uniform").statistic
    assert stat < 0.01


def test_beta_mean_s4():
    draws = beta_1s_sample(4.0, RngStream(17, 0), size=10**6)
    assert abs(draws.mean() - 0.2) < 0.002


def test_beta_cdf_at_half_s2():
    draws = beta_1s_sample(2.0, RngStream(18, 0), size=10**5)
    assert abs(np.mean(draws <= 0.5) - 0.75) < 0.005


@pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
def test_beta_cdf_pointwise(s):
    m = 10**5
    draws = np.sort(beta_1s_sample(s, RngStream(19, int(s * 10)), size=m))
    ecdf = np.arange(1, m + 1) / m
    cdf = 1.0 - (1.0 - draws) ** s
    assert np.max(np.abs(ecdf - cdf)) < 1.63 / math.sqrt(m)  # 99% KS band


def test_beta_domain_error():
    with pytest.raises(ValueError):
        beta_1s_sample(0.0, RngStream(0, 0))


def test_streams_replay_identically():
    a = gaussian_sample(0.0, 1.0, RngStream(99, 3), size=1000)
    b = gaussian_sample(0.0, 1.0, RngStream(99, 3), size=1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ_and_decorrelate():
    a = gaussian_sample(0.0, 1.0, RngStream(99, 0), size=10**5)
    b = gaussian_sample(0.0, 1.0, RngStream(99, 1), size=10**5)
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(len(a))


def test_mixed_operation_sequence_replays():
    def run():
        rng = RngStream(5, 7)
        return (
            gaussian_sample(1.0, 2.0, rng, size=10),
            chi_sample(3.3, rng, size=10),
            beta_1s_sample(2.2, rng, size=10),
        )

    first = run()
    second = run()
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_thread_count_does_not_change_streams():
    def draw(idx):
        return chi_sample(2.5, RngStream(42, idx), size=256)

    sequential = [draw(i) for i in range(8)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(draw, range(8)))
    for x, y in zip(sequential, threaded):
        assert np.array_equal(x, y)


def test_negative_stream_index_rejected():
    with pytest.raises(ValueError):
        RngStream(0, -1)



@settings(max_examples=300, derandomize=True, deadline=None)
@given(m=st.integers(1, 5 * BLOCK_SIZE + 3), base=st.integers(0, 1 << 33))
def test_replica_blocks_tile_in_order(m, base):
    blocks = replica_blocks(m, base)
    assert [i for block in blocks for i in block] == list(range(base, base + m))
    for k, block in enumerate(blocks):
        assert isinstance(block, range) and block.step == 1 and len(block) > 0
        assert block.start == base + k * BLOCK_SIZE
    assert all(len(block) == BLOCK_SIZE for block in blocks[:-1])
    assert len(blocks[-1]) == m - (len(blocks) - 1) * BLOCK_SIZE
