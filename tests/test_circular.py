import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2_contingency, kstest, unitary_group

from betafluct import circular
from betafluct.circular import (
    GROUP_BYTES,
    RADIUS_CAP,
    TILE_BYTES,
    VerblunskyDraw,
    sample_verblunsky,
    prufer_evaluate,
    count_arc,
    cbe_points,
    sine_beta_window,
    default_window_size,
    _chart_rotation,
    _chart_start,
    _final_phases,
    _row_groups,
    _sample_verblunsky_block,
    _stack_draws,
    _count_arcs_block,
)
from betafluct.rng import RngStream, beta_1s_sample, replica_blocks

TWO_PI = 2.0 * math.pi


def _zero_draw(n, eta):
    return VerblunskyDraw(gamma=np.zeros(n - 1, dtype=complex), eta=eta)


def test_verblunsky_n1_has_no_coefficients():
    draw = sample_verblunsky(2.0, 1, RngStream(0, 0))
    assert len(draw.gamma) == 0
    assert 0.0 <= draw.eta < TWO_PI


def test_verblunsky_validation():
    with pytest.raises(ValueError):
        sample_verblunsky(0.0, 4, RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_verblunsky(2.0, 0, RngStream(0, 0))


def test_verblunsky_last_coefficient_uniform_beta2():
    # at beta = 2 the last squared modulus is Beta(1, 1)
    m = 20000
    gamma, _ = _stack_draws(2.0, 6, 21, range(m))
    radius_sq = np.abs(gamma[:, -1]) ** 2
    assert kstest(radius_sq, "uniform").statistic < 1.63 / math.sqrt(m)


def test_verblunsky_first_coefficient_mean():
    # Beta(1, 10) mean is 1/11 for beta = 2, n = 11
    m = 10**5
    gamma, _ = _stack_draws(2.0, 11, 22, range(m))
    assert abs(np.mean(np.abs(gamma[:, 0]) ** 2) - 1.0 / 11.0) < 0.005


@pytest.mark.parametrize("beta", (0.5, 1.0, 4.0))
def test_block_sampler_coefficient_laws(beta):
    # per column j: |gamma_j|^2 ~ Beta(1, beta*(n-j-1)/2) and the argument is
    # uniform; eta is uniform. Three blocks, each from its own stream, are
    # pooled as a scan pools them.
    n, block, blocks = 6, 2048, 3
    parts = [
        _stack_draws(beta, n, 80, range(s, s + block))
        for s in range(0, blocks * block, block)
    ]
    gamma = np.concatenate([g for g, _ in parts])
    eta = np.concatenate([e for _, e in parts])
    for j in range(n - 1):
        s = 0.5 * beta * (n - j - 1)
        assert kstest(np.abs(gamma[:, j]) ** 2, "beta", args=(1.0, s)).pvalue > 1e-4
        angles = np.mod(np.angle(gamma[:, j]), TWO_PI) / TWO_PI
        assert kstest(angles, "uniform").pvalue > 1e-4
    assert kstest(eta / TWO_PI, "uniform").pvalue > 1e-4


def test_stack_draws_block_addressing():
    block = range(4096, 4096 + 300)
    g1, e1 = _stack_draws(1.5, 12, 81, block)
    g2, e2 = _stack_draws(1.5, 12, 81, block)
    assert np.array_equal(g1, g2) and np.array_equal(e1, e2)
    g3, _ = _stack_draws(1.5, 12, 81, range(4097, 4097 + 300))
    assert not np.any(g1 == g3)
    # the one-draw sampler is the one-replica block at the same address
    draw = sample_verblunsky(1.5, 12, RngStream(81, 4096))
    g4, e4 = _stack_draws(1.5, 12, 81, range(4096, 4097))
    assert np.array_equal(draw.gamma, g4[0]) and draw.eta == e4[0]


@pytest.mark.parametrize("beta", (0.5, 2.0, 4.0))
@pytest.mark.parametrize("n", (1, 2, 64))
def test_block_matches_cos_sin_construction(beta, n):
    # Replay the block's stream by hand: radii by inverse CDF, then arguments,
    # then eta. The tan-based unit factor agrees with cos + i sin to within a
    # few roundings, and eta is the same draw bit for bit.
    count = 2048
    gamma, eta = _sample_verblunsky_block(beta, n, count, RngStream(83, 0), range(count))
    gen = RngStream(83, 0).generator
    s = 0.5 * beta * (n - 1.0 - np.arange(n - 1))
    radius = np.minimum(np.sqrt(1.0 - gen.random((count, n - 1)) ** (1.0 / s)), RADIUS_CAP)
    angles = TWO_PI * gen.random((count, n - 1))
    expected = radius * (np.cos(angles) + 1j * np.sin(angles))
    assert gamma.shape == (count, n - 1)
    assert np.all(np.abs(gamma - expected) <= 4e-16)
    assert np.array_equal(eta, TWO_PI * gen.random(count))


# Rows per chunk of the block sampler at n = 64: TILE_BYTES // (8 * 63).
CHUNK_ROWS_64 = 227


@pytest.mark.parametrize(
    "n, count",
    [(n, c) for n in (1, 2, 64) for c in (1, 127, 128, 129, 300)]
    + [(64, c) for c in (226, 227, 228, 500)]
    # at n = 3000 a chunk is 4 rows: blocks of one, part of one and more
    # than one chunk
    + [(3000, c) for c in (1, 2, 3, 5)],
)
def test_block_sampler_draws_arguments_in_chunks_as_one_draw(n, count):
    # replay the stream by hand: one (count, n-1) radius draw, then the
    # arguments as one (count, n-1) draw, then eta. The sampler's chunks of
    # rows, each drawing its radii next to its arguments, give gamma bit for
    # bit.
    assert TILE_BYTES // (8 * 63) == CHUNK_ROWS_64
    gamma, eta = _sample_verblunsky_block(1.5, n, count, RngStream(85, 3), range(count))
    rng = RngStream(85, 3)
    s = 0.5 * 1.5 * (n - 1.0 - np.arange(n - 1))
    radius = np.minimum(np.sqrt(beta_1s_sample(s, rng, np.empty((count, n - 1)))), RADIUS_CAP)
    t = np.tan(math.pi * rng.generator.random((count, n - 1)))
    expected = np.empty((count, n - 1), dtype=complex)
    expected.imag = 1.0 + t * t
    expected.real = (1.0 - t * t) * (radius / expected.imag)
    expected.imag = 2.0 * t * (radius / expected.imag)
    assert np.array_equal(gamma.view(float), expected.view(float))
    assert np.array_equal(eta, TWO_PI * rng.generator.random(count))


class _CountingStream(RngStream):
    """An RngStream that counts the copies it and its copies make."""

    def __init__(self, copies):
        super().__init__(87, 2)
        self.copies = copies

    def ahead(self, k):
        self.copies.append(k)
        return super().ahead(k)


@pytest.mark.parametrize("n", (1, 2, 64))
@pytest.mark.parametrize(
    "rows", [range(0, 300), range(0, 1), range(0, 127), range(5, 6), range(40, 211), range(299, 300)]
)
def test_block_rows_are_the_rows_of_the_whole_block(n, rows):
    # any run of rows reads its radii, arguments and eta at their offsets in
    # the block's stream and gives those rows of the whole block bit for bit;
    # the whole block makes one stream copy, a part of it at most three
    whole_gamma, whole_eta = _sample_verblunsky_block(0.8, n, 300, RngStream(87, 2), range(300))
    copies = []
    gamma, eta = _sample_verblunsky_block(0.8, n, 300, _CountingStream(copies), rows)
    assert np.array_equal(gamma.view(float), whole_gamma[rows.start : rows.stop].view(float))
    assert np.array_equal(eta, whole_eta[rows.start : rows.stop])
    assert len(copies) == (1 if len(rows) == 300 else 2 if rows.start == 0 else 3)


def test_block_rows_must_lie_in_the_block():
    for rows in (range(-1, 3), range(2, 6), range(0, 4, 2)):
        with pytest.raises(ValueError, match="rows"):
            _sample_verblunsky_block(2.0, 8, 5, RngStream(0, 0), rows)


@pytest.mark.parametrize("group_bytes", (1, 16 * 63 * 7 + 5, 2**20))
@pytest.mark.parametrize("n", (1, 2, 64))
def test_row_groups_joined_are_the_block(monkeypatch, n, group_bytes):
    # with GROUP_BYTES made tiny (one-row groups at 1 byte), the groups of a
    # block joined give its gamma and eta bit for bit; they are the fewest
    # near-equal runs that keep a group's coefficients within GROUP_BYTES
    monkeypatch.setattr(circular, "GROUP_BYTES", group_bytes)
    block = range(2048, 2048 + 300)
    groups = _row_groups(block, n)
    row_bytes = 16 * max(n - 1, 1)
    per_group = max(1, group_bytes // row_bytes)
    assert len(groups) == -(-len(block) // per_group)
    assert [r for g in groups for r in g] == list(block)
    sizes = {len(g) for g in groups}
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= per_group
    parts = [_stack_draws(1.5, n, 88, rows, block) for rows in groups]
    gamma, eta = _stack_draws(1.5, n, 88, block)
    assert np.array_equal(np.concatenate([g for g, _ in parts]).view(float), gamma.view(float))
    assert np.array_equal(np.concatenate([e for _, e in parts]), eta)


def test_row_groups_stay_under_group_bytes():
    # cbe-regularity's (1024, 2999) block takes two groups of 512 rows, a
    # sine scan's n = 4096 block four of 512, and a block that fits one
    assert _row_groups(range(1024), 3000) == [range(0, 512), range(512, 1024)]
    assert [len(g) for g in _row_groups(range(4096, 6144), 4096)] == [512] * 4
    assert _row_groups(range(2048, 4096), 64) == [range(2048, 4096)]
    assert 512 * 16 * 4095 <= GROUP_BYTES


class _StubGenerator:
    """Hands out preset uniforms in the order the sampler draws them."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size=None, out=None):
        draw = np.asarray(self.draws.pop(0), dtype=float)
        if out is None:
            assert draw.shape == np.empty(size).shape
            return draw
        out[...] = draw
        return out


class _StubStream:
    """A stream whose copies k doubles ahead hand out the preset uniforms
    that `draws` lists under offset k."""

    def __init__(self, draws, offset=0):
        self.draws = draws
        self.generator = _StubGenerator(*draws.get(offset, ()))

    def ahead(self, k):
        return _StubStream(self.draws, k)


def test_block_argument_edges():
    # at beta = 2, n = 2 the radius is sqrt(1 - U); U = 0.25 gives sqrt(0.75).
    # The whole block of five reads its radii at offset 0, its arguments at 5
    # and its eta at 10; rows 1-3 read each at their own offsets.
    args = np.array([0.0, 0.5, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
    radius = math.sqrt(0.75)
    for rows in (range(0, 5), range(1, 4)):
        lo, hi = rows.start, rows.stop
        radii, eta = np.full((hi - lo, 1), 0.25), np.zeros(hi - lo)
        if len(rows) == 5:
            draws = {0: [radii], 5: [args[:, None], eta]}
        else:
            draws = {lo: [radii], 5 + lo: [args[lo:hi, None]], 10 + lo: [eta]}
        gamma, _ = _sample_verblunsky_block(2.0, 2, 5, _StubStream(draws), rows)
        row = dict(zip(rows, gamma[:, 0]))
        # U = 0: exactly the radius on the positive axis
        if 0 in row:
            assert row[0].real == radius and row[0].imag == 0.0
        # U next to 1/2, where t = tan(pi U) is about 1.6e16: finite, on the
        # circle of the radius to 1 ulp
        assert np.all(np.isfinite(gamma)), rows
        assert np.all(np.abs(np.abs(gamma[:, 0]) - radius) <= np.spacing(radius)), rows
        assert all(abs(row[r] + radius) <= 2e-15 for r in (1, 2, 3)), rows


def test_small_beta_coefficients_stay_in_open_disc():
    # inverse-CDF radii round to 1 when U^(1/s) < 1.1e-16, which at beta = 0.1,
    # n = 3 happens for about 7% of coefficients; the cap keeps every |gamma|
    # below 1
    radii = np.concatenate(
        [np.abs(sample_verblunsky(0.1, 3, RngStream(84, d)).gamma) for d in range(300)]
    )
    assert np.max(radii) < 1.0
    assert np.max(radii) >= RADIUS_CAP * (1.0 - 1e-15)


def test_prufer_zero_coefficients_linear():
    draw = _zero_draw(10, 1.0)
    for k in (0, 3, 9):
        psi = prufer_evaluate(draw, 0.7, 0.0, k)
        assert psi == pytest.approx((k + 1) * 0.7, abs=1e-12)


def test_prufer_offset_equivariance():
    for d in range(20):
        draw = sample_verblunsky(1.5, 20, RngStream(23, d))
        theta, a = 0.31, 0.9
        base = prufer_evaluate(draw, theta, a)
        shifted = prufer_evaluate(draw, theta, a + TWO_PI)
        assert abs(shifted - base - TWO_PI) < 1e-9


def test_prufer_full_winding_over_period():
    n = 50
    gamma, _ = _stack_draws(2.0, n, 24, range(100))
    lo = _final_phases(gamma, np.array([0.13]))[:, 0]
    hi = _final_phases(gamma, np.array([0.13 + TWO_PI]))[:, 0]
    assert np.max(np.abs(hi - lo - TWO_PI * n)) < 1e-9


def test_prufer_monotone_in_theta_and_offset():
    n = 30
    gamma, _ = _stack_draws(2.0, n, 25, range(100))
    thetas = np.linspace(0.0, 0.5, 100)
    psi = _final_phases(gamma, thetas)
    assert np.all(np.diff(psi, axis=1) > 0)
    psi_a = np.stack(
        [_final_phases(gamma, np.array([0.2]), a=a)[:, 0] for a in np.linspace(0, 1, 10)], axis=1
    )
    assert np.all(np.diff(psi_a, axis=1) > 0)


def test_prufer_increment_bound():
    for d in range(30):
        draw = sample_verblunsky(0.7, 40, RngStream(26, d))
        trajectory = [
            _final_phases(draw.gamma[None, :k], np.array([0.45]), 1.1)[0, 0] for k in range(40)
        ]
        steps = np.diff(trajectory) - 0.45
        assert np.max(np.abs(steps)) < TWO_PI


def test_prufer_depth_validation():
    draw = sample_verblunsky(2.0, 5, RngStream(0, 0))
    with pytest.raises(ValueError):
        prufer_evaluate(draw, 0.1, 0.0, 5)
    with pytest.raises(ValueError):
        prufer_evaluate(draw, 0.1, 0.0, -1)


def test_prufer_martingale_mean():
    # psi_k(theta, a) - k*theta is a martingale started at theta + a
    n, m = 30, 10**5
    theta, a = 0.8 / n, 0.37
    gamma, _ = _stack_draws(2.0, n, 27, range(m))
    psi = _final_phases(gamma, np.array([theta]), a=a)[:, 0]
    drift = psi - (n - 1) * theta - (theta + a)
    assert abs(drift.mean()) < 5.0 * drift.std() / math.sqrt(m)


# (beta, n, theta, a, seed); theta > 2*pi and theta < 0 reach the whole-sheet
# term of the rotation and a negative tau
PRUFER_MEAN_ROWS = (
    (2.0, 30, 1.0 / 30, 0.3, 8501),
    (0.5, 50, 0.02, -1.0, 8502),
    (4.0, 8, 0.1, 2.0, 8503),
    (1.0, 200, 0.005, 0.0, 8504),
    (1.0, 8, 7.0, 0.4, 8505),
    (2.0, 16, -0.3, 0.0, 8506),
    (0.5, 12, 3.5, -2.0, 8507),
)


def test_prufer_mean_winding_is_exact():
    # E[psi_{n-1}(theta, a) - a] = n*theta for every beta and n: each step adds
    # theta plus 2*(arg(1 - g) - arg(1 - g e^{i psi})), which has mean 0
    # because arg g is uniform and independent of psi
    m = 16384
    zs = []
    for beta, n, theta, a, seed in PRUFER_MEAN_ROWS:
        total = total_sq = 0.0
        for block in replica_blocks(m):
            gamma, _ = _stack_draws(beta, n, seed, block)
            excess = _final_phases(gamma, np.array([theta]), a)[:, 0] - a - n * theta
            total += float(excess.sum())
            total_sq += float(excess @ excess)
        mean = total / m
        variance = (total_sq - m * mean * mean) / (m - 1)
        zs.append(mean / math.sqrt(variance / m))
    zs = np.array(zs)
    assert np.all(np.abs(zs) <= 4.0), zs
    assert abs(zs.sum()) / math.sqrt(len(zs)) <= 3.0, zs


def test_count_arc_empty_and_domain():
    draw = sample_verblunsky(2.0, 8, RngStream(28, 0))
    assert count_arc(draw, 0.0) == 0
    with pytest.raises(ValueError):
        count_arc(draw, -0.1)
    with pytest.raises(ValueError):
        count_arc(draw, TWO_PI * 8)


def test_count_arc_full_circle_limit():
    n = 16
    for d in range(100):
        draw = sample_verblunsky(2.0, n, RngStream(29, d))
        assert count_arc(draw, TWO_PI * n - 1e-6) == n


def test_count_arc_tracks_phase_winding():
    # the count never strays more than one unit from psi(x/n)/(2 pi)
    n = 24
    for d in range(50):
        draw = sample_verblunsky(1.5, n, RngStream(58, d))
        for x in RngStream(59, d).generator.uniform(0, TWO_PI * n, 5):
            psi = _final_phases(draw.gamma.reshape(1, -1), np.array([x / n]))[0, 0]
            assert abs(count_arc(draw, x) - psi / TWO_PI) <= 1.0


def test_count_arc_deterministic_lattice():
    n = 12
    draw = _zero_draw(n, 1.3)
    for x in (0.5, 1.3, 2.0, 7.0, 40.0, 70.0):
        expected = math.floor((x - 1.3) / TWO_PI) + 1 if x >= 1.3 else 0
        assert count_arc(draw, x) == expected


def test_count_arc_eta_zero_excludes_origin():
    # the deterministic point at angle 0 is outside the half-open arc
    draw = _zero_draw(8, 0.0)
    assert count_arc(draw, 1e-9) == 0
    assert count_arc(draw, TWO_PI + 0.1) == 1


def test_cbe_points_lattice():
    n = 8
    draw = _zero_draw(n, 0.9)
    expected = (0.9 + TWO_PI * np.arange(n)) / n
    assert np.allclose(cbe_points(draw), expected, atol=1e-12)


def test_cbe_points_count_and_sorted():
    n = 16
    for d in range(1000):
        draw = sample_verblunsky(2.0, n, RngStream(30, d))
        points = cbe_points(draw)
        assert len(points) == n
        assert np.all(np.diff(points) > 0)
        assert points[0] >= 0.0 and points[-1] < TWO_PI


def test_cbe_points_solve_to_tolerance():
    n = 16
    for d in range(50):
        draw = sample_verblunsky(1.0, n, RngStream(31, d))
        pts = cbe_points(draw)
        psi = _final_phases(draw.gamma.reshape(1, -1), pts)[0]
        residue = (psi - draw.eta + math.pi) % TWO_PI - math.pi
        # theta is bisected to ~1e-15; the phase residue scales by dpsi/dtheta,
        # which can spike to ~n/(1-|gamma|)
        assert np.max(np.abs(residue)) < 1e-7


def test_cbe_points_cross_oracle_count_arc():
    n = 16
    rng = RngStream(32, 0)
    for d in range(50):
        draw = sample_verblunsky(2.0, n, RngStream(32, d))
        pts = cbe_points(draw) * n
        for x in rng.generator.uniform(0, TWO_PI * n, 4):
            assert count_arc(draw, x) == int(np.sum((pts > 0) & (pts <= x)))


def _cmv_eigenangles(gamma, eta):
    """Arguments in [0, 2*pi) of the eigenvalues of the CMV matrix of one
    draw, built without the Prufer recursion.

    The deformed coefficients gamma map to Verblunsky coefficients
    alpha_k = gamma_k e^{-i phi_k}, phi_0 = 0, phi_{k+1} = phi_k - 2 arg(1 - gamma_k),
    closed by the unimodular alpha_{n-1} = e^{-i(eta + phi_{n-1})}. Then
    C = L M, where L holds the 2x2 blocks Theta_0, Theta_2, ... and M holds
    [1], Theta_1, Theta_3, ...; Theta_k = [[conj(alpha_k), rho_k], [rho_k, -alpha_k]]
    with rho_k = sqrt(1 - |alpha_k|^2), and the last block is the 1x1
    conj(alpha_{n-1}).
    """
    n = len(gamma) + 1
    alpha = np.empty(n, dtype=complex)
    phi = 0.0
    for k, g in enumerate(gamma):
        alpha[k] = g * np.exp(-1j * phi)
        phi -= 2.0 * np.angle(1.0 - g)
    alpha[-1] = np.exp(-1j * (eta + phi))
    factors = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    factors[1][0, 0] = 1.0
    for k in range(n):
        block = factors[k % 2]
        if k == n - 1:
            block[k, k] = np.conj(alpha[k])
        else:
            rho = math.sqrt(1.0 - abs(alpha[k]) ** 2)
            block[k : k + 2, k : k + 2] = [[np.conj(alpha[k]), rho], [rho, -alpha[k]]]
    return np.mod(np.angle(np.linalg.eigvals(factors[0] @ factors[1])), TWO_PI)


def test_count_arcs_match_cmv_eigenvalues():
    # an oracle that shares no code with the Prufer kernel: count the CMV
    # eigenvalue arguments in (0, x/n]
    draws, per_draw = 20, 50
    checked = skipped = 0
    for beta in (0.5, 1.0, 2.0, 4.0):
        for n in (1, 2, 3, 8, 33, 100):
            gamma, eta = _stack_draws(beta, n, 41, range(draws))
            xs_rng = RngStream(42, n)
            for d in range(draws):
                angles = _cmv_eigenangles(gamma[d], eta[d])
                xs = xs_rng.generator.uniform(0.0, TWO_PI * n, per_draw)
                counts = _count_arcs_block(gamma[d : d + 1], eta[d : d + 1], n, xs)[0]
                for x, count in zip(xs, counts):
                    if np.min(np.abs(angles - x / n)) < 1e-9:
                        skipped += 1
                        continue
                    checked += 1
                    assert count == np.count_nonzero((angles > 0.0) & (angles <= x / n)), (beta, n, d, x)
    assert checked + skipped == 4 * 6 * draws * per_draw
    assert skipped <= 0.001 * checked


def _pooled_tails(a, b, least=10):
    """Value tables (2, V) of two count samples, with the values at either
    end pooled until each end column holds at least `least` counts."""
    lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
    table = np.stack([np.bincount(c - lo, minlength=hi - lo + 1) for c in (a, b)])
    column = table.sum(axis=0)
    first = np.searchsorted(np.cumsum(column), least)
    last = len(column) - 1 - np.searchsorted(np.cumsum(column[::-1]), least)
    return np.column_stack(
        [table[:, : first + 1].sum(axis=1), table[:, first + 1 : last], table[:, last:].sum(axis=1)]
    )


def test_beta2_arc_counts_match_haar_unitaries():
    # CUE is the beta = 2 ensemble: the arc count's whole law must match the
    # eigenangle counts of Haar unitaries, drawn by scipy without Verblunsky
    # coefficients (chi-square homogeneity of the two value tables, per arc)
    n, m = 8, 20000
    xs = np.array([2.0, 8.0, 20.0])
    gamma, eta = _sample_verblunsky_block(2.0, n, m, RngStream(4711, 0), range(m))
    cbe = _count_arcs_block(gamma, eta, n, xs)
    unitaries = unitary_group.rvs(n, size=m, random_state=2718)
    angles = np.mod(np.angle(np.linalg.eigvals(unitaries)), TWO_PI)[:, :, None]
    haar = np.count_nonzero((angles > 0.0) & (angles <= xs / n), axis=1)
    pvalues = [chi2_contingency(_pooled_tails(cbe[:, k], haar[:, k])).pvalue for k in range(len(xs))]
    assert min(pvalues) > 1e-3, pvalues


def _phases_longdouble(gamma, thetas, a):
    """The Prufer recursion psi += theta + 2*(arg(1-g) - arg(1-g e^{i psi}))
    in extended precision, by cos/sin of the phase itself."""
    g = np.asarray(gamma, dtype=np.clongdouble)
    th = np.asarray(thetas, dtype=np.longdouble)
    psi = np.broadcast_to(th + np.longdouble(a), (g.shape[0], th.size)).copy()
    for j in range(g.shape[1]):
        gj = g[:, j : j + 1]
        w = 1 - gj * (np.cos(psi) + 1j * np.sin(psi))
        psi += th + 2 * (np.angle(1 - gj) - np.angle(w))
    return psi


# Long double is wider than double on x86-64 Linux, not on every platform.
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps
# Phase error bound against _phases_longdouble, from measurement. The chart
# kernel reads at most 1.2e-12 on these tests, and 1.5e-13 on the four-draw
# blocks of test_final_phases_match_extended_precision. A rotation written
# as -cot(rho) - csc(rho)^2/(t - cot(rho)) reads 7.5e-11 there at beta = 2
# and 2.4e-9 at beta = 4.
PHASE_TOL = 5e-12
# Bound on the bytes _final_phases allocates at once on cbe-regularity's
# block, from tracemalloc: it reads 1.26 MiB.
PEAK_BYTES = 4 * 2**20


@pytest.mark.skipif(not EXTENDED, reason="long double is double here")
@pytest.mark.parametrize("beta", (0.5, 2.0, 4.0))
def test_final_phases_match_extended_precision(beta):
    for n in (10, 300, 3000):
        gamma, _ = _stack_draws(beta, n, 43, range(4))
        thetas = np.array([0.5, 10.0, 300.0]) / n
        psi = _final_phases(gamma, thetas, 0.3)
        exact = _phases_longdouble(gamma, thetas, 0.3)
        assert np.max(np.abs(psi - exact)) < PHASE_TOL, n


def _phases_per_step(gamma, thetas, a):
    """The unit-complex Prufer step with one arctan2 per step: u = e^{i psi}
    moves to u e^{i theta} q/conj(q), q = (1-g)*conj(1-g u), and psi gains
    theta + 2*arg q."""
    thetas = np.asarray(thetas, dtype=float)[:, None]
    shape = (thetas.size, gamma.shape[0])
    psi0 = thetas + a
    u = np.exp(1j * np.broadcast_to(psi0, shape))
    rot = np.exp(1j * thetas)
    winding = np.zeros(shape)
    for j in range(gamma.shape[1]):
        c = np.conj(1.0 - gamma[:, j])
        q_bar = c - u * (c * gamma[:, j])
        winding -= np.arctan2(q_bar.imag, q_bar.real)
        u = u * rot * np.conj(q_bar) / q_bar
    return (psi0 + gamma.shape[1] * thetas + 2.0 * winding).T


@pytest.mark.parametrize("beta", (0.25, 2.0, 4.0))
def test_final_phases_match_per_step_arctan2(beta):
    # the chart recursion gives the counts of one arctan2 per step exactly,
    # and phases within PHASE_TOL of the extended-precision recursion
    for n in (1, 2, 64, 300):
        for draws in (1, 64):
            gamma, eta = _stack_draws(beta, n, 47, range(draws))
            for thetas in (np.array([0.3]), np.array([0.3, 7.0, 0.8 * TWO_PI * n]) / n):
                psi = _final_phases(gamma, thetas, 0.2)
                ref = _phases_per_step(gamma, thetas, 0.2)
                assert np.max(np.abs(psi - ref)) < 1e-11, (n, draws)
                if EXTENDED:
                    exact = _phases_longdouble(gamma, thetas, 0.2)
                    assert np.max(np.abs(psi - exact)) < PHASE_TOL, (n, draws)
                counts = np.floor((psi - eta[:, None]) / TWO_PI)
                assert np.array_equal(counts, np.floor((ref - eta[:, None]) / TWO_PI)), (n, draws)


@pytest.mark.skipif(not EXTENDED, reason="long double is double here")
def test_final_phases_match_extended_precision_at_the_radius_cap():
    # every coefficient on the circle of radius RADIUS_CAP, where 1 - |g|^2
    # is about 1.8e-15 and alpha reaches about 2e15
    gen = np.random.default_rng(48)
    gamma = RADIUS_CAP * np.exp(TWO_PI * 1j * gen.random((64, 63)))
    thetas = np.array([0.3, 1.1, 5.0])
    psi = _final_phases(gamma, thetas, 0.2)
    assert np.max(np.abs(psi - _phases_longdouble(gamma, thetas, 0.2))) < PHASE_TOL
    ref = _phases_per_step(gamma, thetas, 0.2)
    assert np.array_equal(np.floor(psi / TWO_PI), np.floor(ref / TWO_PI))


def _lattice_phases(depth, thetas, a):
    """psi_J of zero coefficients, theta + a + J*theta, and its arc counts
    for the boundary phase eta = 0.25."""
    psi = np.asarray(thetas, dtype=float) + a + depth * np.asarray(thetas, dtype=float)
    return psi, np.floor((psi - 0.25) / TWO_PI) - math.floor(-0.25 / TWO_PI)


@pytest.mark.parametrize("depth", (1, 9, 40, 600))
def test_final_phases_zero_coefficients_on_every_sheet(depth):
    # gamma = 0 gives alpha = 1 and delta = 0, so only the rotation acts:
    # theta = 0 (tau = 0), theta in [2 pi, 4 pi) (whole sheets m), and
    # theta = 30, where theta/2 - 4 pi = 2.43 > pi/2 reduces to a negative
    # tau; without sign(tau) the phase at n = 10 is off by about 50 rad. At
    # depth 600, theta = 3.0 and 3.2 cross more sheets than a byte counts.
    thetas = np.array([0.0, 0.3, 3.0, 3.2, TWO_PI, 7.0, 30.0, 2.0 * TWO_PI + 0.1])
    gamma = np.zeros((3, depth), dtype=complex)
    for a in (0.0, 0.2, 1.0, 5.9):
        psi, counts = _lattice_phases(depth, thetas, a)
        got = _final_phases(gamma, thetas, a)
        assert np.max(np.abs(got - psi)) < 1e-12 * (1.0 + np.max(psi)), a
        got_counts = np.floor((got - 0.25) / TWO_PI) - math.floor(-0.25 / TWO_PI)
        assert np.array_equal(got_counts, np.broadcast_to(counts, got.shape)), a


def test_final_phases_count_more_crossings_than_a_byte_holds():
    # with theta near pi a draw crosses a sheet about every other step, so
    # at depth 600 it crosses 285-301 times: the byte counter must be added
    # into turns on the way
    thetas = np.array([math.pi - 0.01, math.pi + 0.01, 3.0])
    gamma, _ = _stack_draws(2.0, 601, 52, range(16))
    psi = _final_phases(gamma, thetas, 0.2)
    assert np.min(psi) > 285 * TWO_PI
    assert np.max(np.abs(psi - _phases_per_step(gamma, thetas, 0.2))) < 1e-9
    # g = 0.8 - 0.4i gives alpha = 1 and delta = 4, so t + 4 >= 1/tau and
    # every one of the 600 steps crosses: a counter that held 256 steps of
    # crossings would wrap to 0 and lose 256 sheets
    gamma = np.full((2, 600), 0.8 - 0.4j)
    psi = _final_phases(gamma, thetas, 0.2)
    assert np.all(np.floor(psi[:, [0, 2]] / TWO_PI) == 600)
    assert np.max(np.abs(psi - _phases_per_step(gamma, thetas, 0.2))) < 1e-9


@pytest.mark.parametrize("a", (0.0, 0.2))
def test_final_phases_levels_on_a_sheet_boundary(a):
    # theta + a = 0 or 2 pi starts on a sheet boundary (t0 = -inf): that level
    # takes the careful step, and every level of the grid gives the phases
    # of a call for that level alone, bit for bit
    gamma, _ = _stack_draws(2.0, 64, 53, range(40))
    thetas = np.array([0.0, 0.01, TWO_PI - a, 0.5, 3.0])
    with np.errstate(divide="ignore"):
        on_edge = np.isinf(_chart_start(thetas + a)[1])
    assert on_edge[2] and on_edge[0] == (a == 0.0)
    got = _final_phases(gamma, thetas, a)
    assert np.all(np.isfinite(got))
    for k, theta in enumerate(thetas):
        assert np.array_equal(got[:, k], _final_phases(gamma, np.array([theta]), a)[:, 0]), k
    if a == 0.0:
        # u = 1 is fixed by every step at theta = 0
        assert np.all(got[:, 0] == 0.0)


def test_final_phases_reruns_only_the_lost_levels(monkeypatch):
    # theta = 0 at a = 0 puts every draw on a sheet boundary at that one
    # level: the careful rerun takes that level alone, and the joint call
    # still gives each level's phases bit for bit
    gamma, _ = _stack_draws(2.0, 64, 54, range(300))
    thetas = np.array([0.0, 0.01, 0.02, 0.05])
    singles = [_final_phases(gamma, thetas[k : k + 1]) for k in range(len(thetas))]
    calls = []

    def recording(gamma, tau, t0, careful):
        calls.append((careful, gamma.shape[0], tau.size))
        return chart_steps(gamma, tau, t0, careful)

    chart_steps = circular._chart_steps
    monkeypatch.setattr(circular, "_chart_steps", recording)
    got = _final_phases(gamma, thetas)
    assert calls == [(False, 300, 4), (True, 300, 1)]
    assert np.array_equal(got, np.concatenate(singles, axis=1))
    assert np.all(got[:, 0] == 0.0)


def _boundary_case(theta, landing):
    """(theta', a), theta' within 64 ulps of theta, for which rotation number
    `landing` (from 1) of zero coefficients meets a sheet boundary exactly:
    tau*t rounds to 1, so 1 - tau*t is exactly 0. The chart values are
    replayed with the kernel's rotation (-tau - t)/(tau*t - 1). The t that
    one ulp steps of a reach lie about 15 ulps of tau*t apart, and theta is
    stepped too until one of them lands on 1."""
    for i in range(-64, 64):
        th = theta + i * np.spacing(theta)
        _, tau = _chart_rotation(np.array([th]))
        # before that rotation t = 1/tau, which is psi = -theta mod 2 pi
        psi0 = (-landing * th) % TWO_PI
        for j in range(-32, 32):
            a = psi0 + j * np.spacing(psi0) - th
            _, t = _chart_start(np.array([th + a]))
            for step in range(1, landing + 1):
                w = tau[0] * t[0] - 1.0
                if w == 0.0:
                    if step == landing:
                        return th, a
                    break
                t = (-tau - t) / w
    raise AssertionError("no rotation meets the boundary")


@pytest.mark.parametrize("theta", (0.5, 2.5, 5.0, 7.0, 11.0))
def test_final_phases_through_an_exact_sheet_boundary(theta):
    # 1 - tau*t = 0 exactly at the third rotation: the step moves the sheet
    # and t goes to -sign(tau)*inf, which puts the phase on the boundary;
    # the next rotation of that infinite t must reach its limit -1/tau, not
    # NaN. theta = 5.0 and 11.0 have tau < 0, and 5.0, 7.0 and 11.0 add
    # whole sheets, m = 1, 1 and 2.
    theta, a = _boundary_case(theta, 3)
    for depth in (3, 4, 9):
        gamma = np.zeros((2, depth), dtype=complex)
        psi, counts = _lattice_phases(depth, [theta], a)
        got = _final_phases(gamma, np.array([theta]), a)
        assert np.all(np.isfinite(got)), depth
        assert np.max(np.abs(got - psi)) < 1e-12 * (1.0 + psi[0]), depth
        assert np.array_equal(np.floor((got - 0.25) / TWO_PI) - math.floor(-0.25 / TWO_PI),
                              np.broadcast_to(counts, got.shape)), depth
    # random draws alongside the boundary one are untouched by its rerun
    gamma, _ = _stack_draws(2.0, 8, 49, range(3))
    gamma[1] = 0.0
    got = _final_phases(gamma, np.array([theta]), a)
    assert np.array_equal(got[[0, 2]], _final_phases(gamma[[0, 2]], np.array([theta]), a))
    assert abs(got[1, 0] - (a + 8 * theta)) < 1e-12 * (1.0 + a + 8 * theta)


def test_count_arcs_block_rejects_a_non_finite_phase():
    # a cast would turn a NaN phase into INT64_MIN
    gamma, eta = _stack_draws(2.0, 6, 50, range(3))
    with pytest.raises(ValueError, match="not finite"):
        _count_arcs_block(gamma, eta, 6, np.array([1.0, math.nan]))
    gamma[1, 2] = math.nan
    with pytest.raises(ValueError, match="not finite"):
        _count_arcs_block(gamma, eta, 6, np.array([1.0, 3.0]))


@pytest.mark.parametrize("bad", (math.nan, math.inf, complex(0.1, math.nan)))
def test_verblunsky_draw_rejects_non_finite_gamma(bad):
    # [nan, 0.1] passed the disc check, since nan >= 1 is false, and
    # count_arc then returned INT64_MIN + 1
    for gamma in ([bad, 0.1], np.array([bad, 0.1], dtype=complex)):
        with pytest.raises(ValueError, match="gamma entries must be finite"):
            VerblunskyDraw(gamma=gamma, eta=0.5)
    assert VerblunskyDraw(gamma=[0.1, 0.2j], eta=0.5).n == 3
    with pytest.raises(ValueError, match="eta"):
        VerblunskyDraw(gamma=np.array([0.1], dtype=complex), eta=math.nan)


def test_final_phases_peak_memory():
    # cbe-regularity's block, (C, J, K) = (1024, 2999, 21): the kernel's own
    # allocations stay far below one (C, J) float array (24.6 MB), so the
    # chart coefficients are formed in tiles, not for the whole block
    gen = np.random.default_rng(51)
    gamma = 0.9 * gen.random((1024, 2999)) * np.exp(TWO_PI * 1j * gen.random((1024, 2999)))
    thetas = np.geomspace(1.0, 300.0, 21) / 3000.0
    tracemalloc.start()
    try:
        _final_phases(gamma, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES, peak


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    beta=st.floats(0.25, 6.0),
    n=st.integers(1, 64),
    draws=st.integers(1, 8),
    thetas=st.lists(st.floats(0.0, 3.0 * TWO_PI), min_size=1, max_size=8),
    a=st.floats(0.0, TWO_PI, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_chart_phases_match_per_step_composition(beta, n, draws, thetas, a, seed):
    # the chart recursion equals one arctan2 per step at any rotation and
    # offset: phases within 1e-11, and equal arc counts
    gamma, eta = _stack_draws(beta, n, seed, range(draws))
    thetas = np.array(thetas)
    psi = _final_phases(gamma, thetas, a)
    ref = _phases_per_step(gamma, thetas, a)
    assert np.max(np.abs(psi - ref)) < 1e-11
    counts = np.floor((psi - eta[:, None]) / TWO_PI)
    assert np.array_equal(counts, np.floor((ref - eta[:, None]) / TWO_PI))


def test_sine_window_empty():
    points = sine_beta_window(2.0, 0.0, 64, RngStream(33, 0))
    assert len(points) == 0


def test_sine_window_guard():
    with pytest.raises(ValueError):
        sine_beta_window(2.0, 10.0, 64, RngStream(33, 0))


def test_default_window_size():
    assert default_window_size(1.0) == 4096
    assert default_window_size(100.0) == 5000


def test_sine_window_matches_count_arc():
    x_max = 12.0
    for d in range(30):
        rng = RngStream(34, d)
        points = sine_beta_window(2.0, x_max, 128, rng)
        draw = sample_verblunsky(2.0, 128, RngStream(34, d))
        assert len(points) == count_arc(draw, x_max)
        if len(points):
            assert points[0] > 0 and points[-1] <= x_max
            assert np.all(np.diff(points) > 0)


def test_sine_window_count_mean_centered():
    # mean count in [0, 20] converges to 20/(2 pi); the arc-count mean is
    # exactly x/(2 pi) at every n by rotation invariance
    from betafluct.stats import ScanSpec, variance_scan

    m = 10**5
    row = variance_scan(ScanSpec("sine", 2.0, 4096, (20.0,)), m=m, seed=38)[0]
    assert abs(row.mean - 20.0 / TWO_PI) < 3.0 * math.sqrt(row.variance / m)


def test_sine_window_variance_stable_under_doubling_n():
    from betafluct.stats import ScanSpec, variance_scan

    m = 10**4
    coarse = variance_scan(ScanSpec("sine", 2.0, 4096, (20.0,)), m=m, seed=39)[0]
    fine = variance_scan(ScanSpec("sine", 2.0, 8192, (20.0,)), m=m, seed=40)[0]
    ci_width = coarse.var_ci_hi - coarse.var_ci_lo
    assert abs(fine.variance - coarse.variance) < ci_width


def test_tail_bound_and_second_moment_invariant():
    # exceedance bound 12 e^{-b/12} and second-moment bound 3500 for
    # theta <= 1/n, checked at full depth on one large batch
    n, m = 50, 10**6
    theta = 1.0 / n
    a = 0.6
    hits = {12.0: 0, 24.0: 0, 48.0: 0}
    sumsq = 0.0
    for start in range(0, m, 50000):
        idx = range(start, min(start + 50000, m))
        gamma, _ = _stack_draws(2.0, n, 35, idx)
        psi = _final_phases(gamma, np.array([theta]), a=a)[:, 0]
        for b in hits:
            hits[b] += int(np.sum(psi >= a + b))
        sumsq += float(np.sum((psi - a) ** 2))
    for b, h in hits.items():
        assert h / m <= 12.0 * math.exp(-b / 12.0)
    assert sumsq / m <= 3500.0


def test_regularity_statistic_stable():
    from betafluct.stats import regularity_profile

    small = regularity_profile(2.0, 100.0, m=300, seed=36)
    large = regularity_profile(2.0, 1000.0, m=300, seed=37)
    q_small = np.quantile(small, 0.99)
    q_large = np.quantile(large, 0.99)
    assert q_large < 1.25 * q_small
