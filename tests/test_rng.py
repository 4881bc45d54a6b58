import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from betafluct.rng import (
    BLOCK_SIZE,
    RngStream,
    StepTally,
    beta_1s_sample,
    chi_sample,
    gaussian_sample,
    replica_blocks,
)


def test_gaussian_zero_sd_fills_zeros():
    out = np.full(5, 7.0)
    assert gaussian_sample(0.0, RngStream(0, 0), out) is out
    assert np.all(out == 0.0)


def test_gaussian_negative_sd_rejected():
    with pytest.raises(ValueError):
        gaussian_sample(-1.0, RngStream(0, 0), np.empty(3))


def test_gaussian_moments_beta2():
    draws = gaussian_sample(math.sqrt(2.0 / 2.0), RngStream(11, 0), np.empty(10**6))
    assert abs(draws.mean()) < 4e-3  # 3 sigma CLT band, sd = 1
    assert abs(draws.var() - 1.0) < 0.005


def test_chi_mean_bracket_u4():
    # log-convexity of Gamma brackets E[chi_u] between sqrt(u-1) and sqrt(u)
    draws = chi_sample(4.0, RngStream(12, 0), np.empty(10**6))
    assert math.sqrt(3.0) < draws.mean() < 2.0


def test_chi_squared_mean_u5():
    draws = chi_sample(5.0, RngStream(13, 0), np.empty(10**6))
    assert abs(np.mean(draws**2) - 5.0) < 0.03


def test_chi_small_u_support():
    draws = chi_sample(0.5, RngStream(14, 0), np.empty(10**4))
    assert np.all(draws >= 0) and np.all(np.isfinite(draws))


@pytest.mark.parametrize("u", [0.5, 1.0, 4.0, 100.0])
def test_chi_squared_moments(u):
    # chi_u^2 is Gamma(u/2, scale 2): mean u, variance 2u, and
    # Var((X-u)^2) = 8u^2 + 48u gives the CLT band for the sample variance.
    m = 10**6
    sq = chi_sample(u, RngStream(15, int(u * 10)), np.empty(m)) ** 2
    assert abs(sq.mean() - u) < 5.0 * math.sqrt(2.0 * u / m)
    assert abs(sq.var() - 2.0 * u) < 5.0 * math.sqrt((8.0 * u * u + 48.0 * u) / m)


def test_chi_domain_error():
    with pytest.raises(ValueError):
        chi_sample(0.0, RngStream(0, 0), np.empty(1))
    with pytest.raises(ValueError):
        chi_sample(-2.0, RngStream(0, 0), np.empty(1))


def test_chi_block_and_vector_calls_equal_one_draw_calls():
    # a block, a row at a time and an element at a time draw the same
    # numbers, element by element in C order, from the same stream
    u = np.array([0.4, 1.0, 3.3, 9.0])
    rng = RngStream(7, 3)
    one = np.array([chi_sample(x, rng, np.empty(1))[0] for _ in range(5) for x in u])
    rng = RngStream(7, 3)
    rows = np.array([chi_sample(u, rng, np.empty(4)) for _ in range(5)])
    block = chi_sample(u, RngStream(7, 3), np.empty((5, 4)))
    assert np.array_equal(block, one.reshape(5, 4)) and np.array_equal(rows, block)


def test_chunked_draws_replay_generator_calls():
    # filling a C-contiguous array in chunks gives, bit for bit, what one
    # whole-array Generator call and the sampler's arithmetic give
    u = np.array([0.4, 1.0, 3.3, 9.0])
    expected = {
        1: RngStream(8, 1).generator.normal(0.0, 1.5, (7, 4)),
        2: np.sqrt(2.0 * RngStream(8, 2).generator.standard_gamma(u / 2.0, (7, 4))),
        3: 1.0 - RngStream(8, 3).generator.random((7, 4)) ** (1.0 / u),
    }
    for sample, arg, seed in ((gaussian_sample, 1.5, 1), (chi_sample, u, 2), (beta_1s_sample, u, 3)):
        rng, out = RngStream(8, seed), np.empty((7, 4))
        for lo, hi in ((0, 3), (3, 4), (4, 7)):
            assert sample(arg, rng, out[lo:hi]).base is out
        assert np.array_equal(out, expected[seed]), sample.__name__


@pytest.mark.parametrize("steps", (0, 1, 254, 255, 256, 510, 511, 766))
def test_step_tally_totals_are_exact(steps):
    # a byte holds 255 steps of hits, so these runs end before, on and past
    # one, two and three flushes; rows hit on every step, on even steps and
    # on odd steps, and every column alike
    tally = StepTally((3, 4))
    for step in range(steps):
        tally.hits[0] = True
        tally.hits[1] = step % 2 == 0
        tally.hits[2] = step % 2 == 1
        tally.add()
    totals = tally.done()
    assert totals.dtype == np.int64
    expected = np.array([steps, (steps + 1) // 2, steps // 2])
    assert np.array_equal(totals, np.broadcast_to(expected[:, None], (3, 4)))


def test_step_tally_done_after_a_flush_adds_nothing_twice():
    tally = StepTally((2, 3))
    tally.hits[:] = True
    for _ in range(255):
        tally.add()
    assert np.all(tally.done() == 255)
    assert np.all(tally.done() == 255)


def test_beta_s1_is_uniform():
    draws = beta_1s_sample(1.0, RngStream(16, 0), np.empty(10**5))
    stat = kstest(draws, "uniform").statistic
    assert stat < 0.01


def test_beta_mean_s4():
    draws = beta_1s_sample(4.0, RngStream(17, 0), np.empty(10**6))
    assert abs(draws.mean() - 0.2) < 0.002


def test_beta_cdf_at_half_s2():
    draws = beta_1s_sample(2.0, RngStream(18, 0), np.empty(10**5))
    assert abs(np.mean(draws <= 0.5) - 0.75) < 0.005


@pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
def test_beta_cdf_pointwise(s):
    m = 10**5
    draws = np.sort(beta_1s_sample(s, RngStream(19, int(s * 10)), np.empty(m)))
    ecdf = np.arange(1, m + 1) / m
    cdf = 1.0 - (1.0 - draws) ** s
    assert np.max(np.abs(ecdf - cdf)) < 1.63 / math.sqrt(m)  # 99% KS band


def test_beta_domain_error():
    with pytest.raises(ValueError):
        beta_1s_sample(0.0, RngStream(0, 0), np.empty(1))


def test_streams_replay_identically():
    a = gaussian_sample(1.0, RngStream(99, 3), np.empty(1000))
    b = gaussian_sample(1.0, RngStream(99, 3), np.empty(1000))
    assert np.array_equal(a, b)


def test_distinct_streams_differ_and_decorrelate():
    a = gaussian_sample(1.0, RngStream(99, 0), np.empty(10**5))
    b = gaussian_sample(1.0, RngStream(99, 1), np.empty(10**5))
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(len(a))


def test_mixed_operation_sequence_replays():
    def run():
        rng = RngStream(5, 7)
        return (
            gaussian_sample(2.0, rng, np.empty(10)),
            chi_sample(3.3, rng, np.empty(10)),
            beta_1s_sample(2.2, rng, np.empty(10)),
        )

    first = run()
    second = run()
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_thread_count_does_not_change_streams():
    def draw(idx):
        return chi_sample(2.5, RngStream(42, idx), np.empty(256))

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
