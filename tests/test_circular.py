import math

import numpy as np
import pytest
from scipy.stats import kstest

from betafluct.circular import (
    PRUFER_RUN_LIMIT,
    RADIUS_CAP,
    VerblunskyDraw,
    sample_verblunsky,
    prufer_evaluate,
    count_arc,
    cbe_points,
    sine_beta_window,
    default_window_size,
    _final_phases,
    _prufer_runs,
    _sample_verblunsky_block,
    _stack_draws,
    _count_arcs_block,
)
from betafluct.rng import RngStream

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
    gamma, eta = _sample_verblunsky_block(beta, n, count, RngStream(83, 0))
    gen = RngStream(83, 0).generator
    s = 0.5 * beta * (n - 1.0 - np.arange(n - 1))
    radius = np.minimum(np.sqrt(1.0 - gen.random((count, n - 1)) ** (1.0 / s)), RADIUS_CAP)
    angles = TWO_PI * gen.random((count, n - 1))
    expected = radius * (np.cos(angles) + 1j * np.sin(angles))
    assert gamma.shape == (count, n - 1)
    assert np.all(np.abs(gamma - expected) <= 4e-16)
    assert np.array_equal(eta, TWO_PI * gen.random(count))


class _StubGenerator:
    """Hands out preset uniforms in the order the sampler draws them."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        out = np.asarray(self.draws.pop(0), dtype=float)
        assert out.shape == np.empty(size).shape
        return out


def test_block_argument_edges():
    # at beta = 2, n = 2 the radius is sqrt(1 - U); U = 0.25 gives sqrt(0.75)
    args = np.array([0.0, 0.5, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
    rng = RngStream(0, 0)
    rng.generator = _StubGenerator(np.full((5, 1), 0.25), args[:, None], np.zeros(5))
    gamma, _ = _sample_verblunsky_block(2.0, 2, 5, rng)
    radius = math.sqrt(0.75)
    # U = 0: exactly the radius on the positive axis
    assert gamma[0, 0].real == radius and gamma[0, 0].imag == 0.0
    # U next to 1/2, where t = tan(pi U) is about 1.6e16: finite, on the
    # circle of the radius to 1 ulp
    assert np.all(np.isfinite(gamma))
    assert np.all(np.abs(np.abs(gamma[:, 0]) - radius) <= np.spacing(radius))
    assert np.all(np.abs(gamma[1:4, 0] + radius) <= 2e-15)


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


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
)
@pytest.mark.parametrize("beta", (0.5, 2.0))
def test_final_phases_match_extended_precision(beta):
    for n in (10, 300, 3000):
        gamma, _ = _stack_draws(beta, n, 43, range(4))
        thetas = np.array([0.5, 10.0, 300.0]) / n
        psi = _final_phases(gamma, thetas, 0.3)
        exact = _phases_longdouble(gamma, thetas, 0.3)
        assert np.max(np.abs(psi - exact)) < 1e-9, n


def _phases_per_step(gamma, thetas, a):
    """The unit-complex Prufer step with one arctan2 per step."""
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


def _check_runs(gamma):
    # the runs tile [0, J) in order, and a run of two or more steps keeps
    # its bound sum below the limit
    assert PRUFER_RUN_LIMIT < math.pi
    stops = _prufer_runs(gamma)
    bound = 2.0 * np.arcsin(np.max(np.abs(gamma), axis=0, initial=0.0))
    start = 0
    for stop in stops:
        assert stop > start
        if stop - start > 1:
            assert sum(bound[start:stop].tolist()) < PRUFER_RUN_LIMIT, (start, stop)
        start = stop
    assert start == gamma.shape[1]
    return stops


@pytest.mark.parametrize("beta", (0.25, 2.0, 4.0))
def test_final_phases_match_per_step_arctan2(beta):
    # one arctan2 per run of steps must give the phases and counts of one
    # arctan2 per step
    for n in (1, 2, 64, 300):
        for draws in (1, 64):
            gamma, eta = _stack_draws(beta, n, 47, range(draws))
            _check_runs(gamma)
            for thetas in (np.array([0.3]), np.array([0.3, 7.0, 0.8 * TWO_PI * n]) / n):
                psi = _final_phases(gamma, thetas, 0.2)
                ref = _phases_per_step(gamma, thetas, 0.2)
                assert np.max(np.abs(psi - ref)) < 1e-12, (n, draws)
                counts = np.floor((psi - eta[:, None]) / TWO_PI)
                assert np.array_equal(counts, np.floor((ref - eta[:, None]) / TWO_PI)), (n, draws)


def test_final_phases_radius_cap_runs_one_step():
    gen = np.random.default_rng(48)
    gamma = RADIUS_CAP * np.exp(TWO_PI * 1j * gen.random((64, 63)))
    assert _check_runs(gamma) == list(range(1, 64))
    thetas = np.array([0.3, 1.1, 5.0])
    assert np.array_equal(_final_phases(gamma, thetas, 0.2), _phases_per_step(gamma, thetas, 0.2))


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
