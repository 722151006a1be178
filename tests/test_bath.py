import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from hseom import (INFINITE, BathSpec, ConfigError, OhmicCircular,
                   OhmicExponential, QuadratureError, alpha_quadrature,
                   alpha_reconstruct, alpha_theta, bath, build_eta,
                   compute_coefficients, reconstruction_error, tail_mass,
                   write_expansion)


def _circular(zeta=0.35, nu=6.0, beta=3.0, K=20):
    return BathSpec(OhmicCircular(zeta=zeta, nu=nu), beta, nu, K)


@pytest.mark.parametrize("zeta,nu,beta", [
    (0.35, 6.0, 3.0),
    (0.1, 3.0, 0.7),
    (1.3, 2.0, INFINITE),
])
def test_circular_odd_coefficients_are_analytic(zeta, nu, beta):
    exp = compute_coefficients(_circular(zeta, nu, beta, 16))
    target = -1j * math.pi * zeta * nu * nu / 8.0
    assert abs(exp.c[1] - target) < 1e-8
    assert abs(exp.c[3] - target) < 1e-8
    for k in range(5, 16, 2):
        assert abs(exp.c[k]) < 1e-8


def _reference_coefficients(spec):
    """c_k from one scalar quad per k, in the angle x = cos(theta).

    The substitution smooths the square-root edge of the circular density,
    and the occupation J(w) / (1 - e^{-beta w}) is coded here from scratch.
    """
    dens, Om = spec.density, spec.Omega

    def occupied(w):
        if spec.zero_temperature:
            return float(dens.evaluate(w)) if w > 0.0 else 0.0
        return float(dens.evaluate(w)) / -math.expm1(-spec.beta_hbar * w)

    c = np.zeros(spec.K, dtype=complex)
    for k in range(spec.K):
        def f(th):
            return math.cos(k * th) * occupied(Om * math.cos(th)) \
                * math.sin(th)
        val = sum(integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-14,
                                 limit=200)[0]
                  for a, b in ((0.0, math.pi / 2), (math.pi / 2, math.pi)))
        c[k] = (2.0 if k else 1.0) * (-1j) ** k * Om * val
    return c


@pytest.mark.parametrize("spec", [
    BathSpec(OhmicCircular(zeta=0.1, nu=3.0), 3.0, 3.0, 12),
    BathSpec(OhmicCircular(zeta=1.3, nu=2.0), INFINITE, 2.0, 16),
    BathSpec(OhmicExponential(eta=0.3, gamma=6.0), 3.0, 20.0, 40),
    BathSpec(OhmicExponential(eta=0.3, gamma=6.0), INFINITE, 20.0, 40),
    # past K = 64, where 64 nodes per half miss by 0.1-0.2
    BathSpec(OhmicCircular(zeta=0.1, nu=3.0), 3.0, 3.0, 160),
    BathSpec(OhmicExponential(eta=0.3, gamma=6.0), INFINITE, 20.0, 160),
], ids=["circular-warm", "circular-cold", "exponential-warm",
        "exponential-cold", "circular-warm-K160", "exponential-cold-K160"])
def test_coefficients_match_a_tight_per_k_reference(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ref = _reference_coefficients(spec)
    got = compute_coefficients(spec).c
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("K", [2, 40, 160])
def test_coefficient_rule_takes_n_and_2n_nodes(K, monkeypatch):
    # n = max(64, K) nodes per half, checked against 2n; the 2n sums are
    # the coefficients
    calls = []
    original = bath._theta_rule

    def counted(spec, n):
        calls.append(n)
        return original(spec, n)

    monkeypatch.setattr(bath, "_theta_rule", counted)
    spec = _circular(K=K)
    c = compute_coefficients(spec).c
    n = max(64, K)
    assert calls == [n, 2 * n]
    ks = np.arange(K)
    theta, g = original(spec, 2 * n)
    assert np.array_equal(c, np.where(ks == 0, 1.0, 2.0) * (-1j) ** ks
                          * spec.Omega * (np.cos(np.outer(ks, theta)) @ g))


def test_unconverged_coefficient_quadrature_is_refused(monkeypatch):
    # 32 nodes per half miss K = 80 by about 0.26; 64 do not
    monkeypatch.setattr(bath, "_node_count", lambda K: 32)
    with pytest.raises(QuadratureError):
        compute_coefficients(_circular(K=80))
    monkeypatch.setattr(bath, "_node_count", lambda K: 64)
    compute_coefficients(_circular(K=80))


def test_odd_coefficients_do_not_depend_on_temperature():
    # the sinh/sinh cancellation in the odd sector is exact
    exp_cold = compute_coefficients(_circular(beta=INFINITE))
    exp_warm = compute_coefficients(_circular(beta=0.5))
    assert np.abs(exp_cold.c[1::2] - exp_warm.c[1::2]).max() < 1e-8
    # while the even sector definitely does
    assert np.abs(exp_cold.c[0::2] - exp_warm.c[0::2]).max() > 1e-3


def test_high_temperature_real_part_limit():
    # Re alpha(t) -> (pi zeta nu / 2 beta) [J_0 + J_2](nu t) as beta -> 0
    zeta, nu, beta = 0.2, 3.0, 1e-4
    spec = _circular(zeta, nu, beta, 8)
    for t in (0.3, 1.1):
        expected = (math.pi * zeta * nu / (2.0 * beta)) * (
            special.jv(0, nu * t) + special.jv(2, nu * t))
        got = alpha_quadrature(spec, t).real
        assert abs(got / expected - 1.0) < 1e-5


@pytest.mark.parametrize("beta", [3.0, INFINITE])
def test_reconstruction_matches_quadrature(beta):
    spec = _circular(beta=beta)
    exp = compute_coefficients(spec)
    err = reconstruction_error(spec, exp, np.linspace(0.0, 2.0, 21))
    assert err < 1e-4


def test_reconstruction_improves_with_K():
    grid = np.linspace(0.0, 2.0, 11)
    errs = []
    for K in (6, 10, 14):
        spec = _circular(K=K)
        errs.append(reconstruction_error(
            spec, compute_coefficients(spec), grid))
    assert errs[0] > errs[1] > errs[2]


def test_c0_equals_alpha_at_zero():
    spec = _circular()
    exp = compute_coefficients(spec)
    assert abs(exp.c[0] - alpha_quadrature(spec, 0.0)) < 1e-8 * abs(exp.c[0])


def test_alpha_reconstruct_scalar_and_array_agree():
    exp = compute_coefficients(_circular())
    ts = np.array([0.0, 0.4, 1.7])
    arr = alpha_reconstruct(exp, ts)
    # the sums contract in a different order, so agreement is close rather
    # than bitwise
    for i, t in enumerate(ts):
        assert abs(arr[i] - alpha_reconstruct(exp, float(t))) < 1e-12


@pytest.mark.parametrize("K,z_max", [(5, 3.0), (20, 36.0), (80, 32.0),
                                     (80, 120.0)])
def test_bessel_ladder_matches_scipy(K, z_max):
    z = np.linspace(0.0, z_max, 401)
    reference = special.jv.outer(np.arange(K), z)
    assert np.abs(bath._bessel_ladder(K, z) - reference).max() < 1e-14


@pytest.mark.parametrize("K", [2, 20, 80])
def test_bessel_ladder_at_zero_is_the_unit_vector(K):
    # phi_k(0) = J_k(0) = delta_{k0}, so alpha(0) is c_0
    assert np.abs(bath._bessel_ladder(K, 0.0) - np.eye(K)[0]).max() <= 1e-15
    exp = compute_coefficients(_circular(K=K))
    assert abs(alpha_reconstruct(exp, 0.0) - exp.c[0]) \
        <= 1e-15 * abs(exp.c[0])


def test_zero_temperature_is_the_large_beta_limit():
    dens = OhmicCircular(zeta=0.3, nu=2.0)
    cold = BathSpec(dens, INFINITE, 2.0, 10)
    nearly = BathSpec(dens, 1e4, 2.0, 10)
    for t in (0.0, 0.8):
        a = alpha_quadrature(cold, t)
        b = alpha_quadrature(nearly, t)
        assert abs(a - b) < 1e-4 * abs(a)


def test_eta_matrix_pattern():
    eta = build_eta(5, 2.0).toarray()
    expected = np.array([
        [0.0, -2.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
    ])
    assert np.array_equal(eta, expected)


@pytest.mark.parametrize("beta", [3.0, INFINITE], ids=["warm", "cold"])
@pytest.mark.parametrize("density,Omega", [
    (OhmicCircular(zeta=0.35, nu=6.0), 6.0),
    (OhmicExponential(eta=0.3, gamma=6.0), 20.0),
], ids=["circular", "exponential"])
def test_alpha_theta_matches_adaptive_quadrature(density, Omega, beta):
    # Omega t up to 160, past the 120 that the exponential presets reach
    spec = BathSpec(density, beta, Omega, 20)
    ts = np.linspace(0.0, 160.0 / Omega, 33)
    ref = np.array([alpha_quadrature(spec, t) for t in ts])
    got = alpha_theta(spec, ts)
    assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()


def test_alpha_theta_refuses_too_few_nodes(monkeypatch):
    # n = max(64, K, ceil(Omega t_max)) per half; 8 nodes cannot follow a
    # plane wave through 36 radians, and the 8-against-16 check says so
    spec = _circular(K=20)
    ts = np.linspace(0.0, 6.0, 41)
    alpha_theta(spec, ts)
    monkeypatch.setattr(bath, "_node_count", lambda K, z_max=0.0: 8)
    with pytest.raises(QuadratureError):
        alpha_theta(spec, ts)


def test_tail_mass_circular_is_zero():
    assert tail_mass(_circular()) == 0.0


def test_tail_mass_exponential_against_direct_quadrature():
    # independent route: same defining integrals, coded from scratch here
    eta, gamma, beta, Om = 0.35, 6.0, 3.0, 20.0

    def occupied(w):
        with np.errstate(over="ignore"):
            return eta * w * np.exp(-abs(w) / gamma) / (
                1.0 - np.exp(-beta * w))

    inner, _ = integrate.quad(occupied, -Om, Om, points=[0.0], limit=200)
    left, _ = integrate.quad(occupied, -np.inf, -Om, limit=200)
    right, _ = integrate.quad(occupied, Om, np.inf, limit=200)
    expected = (left + right) / (left + right + inner)
    spec = BathSpec(OhmicExponential(eta=eta, gamma=gamma), beta, Om, 40)
    assert abs(tail_mass(spec) - expected) < 1e-8
    # with the window this wide the missed weight is small but real
    assert 0.001 < expected < 0.2


def test_expansion_file_round_trip(tmp_path):
    spec = _circular(K=12)
    exp = compute_coefficients(spec)
    path = tmp_path / "expansion.txt"
    write_expansion(path, spec, exp)
    # one 'k repr(re) repr(im)' line per coefficient, so float() of the
    # text gives each coefficient back bit for bit
    rows = [line for line in path.read_text().splitlines()
            if not line.startswith("#")]
    assert rows == [f"{k} {float(c.real)!r} {float(c.imag)!r}"
                    for k, c in enumerate(exp.c)]
    back = np.array([complex(float(re), float(im))
                     for _, re, im in (row.split() for row in rows)])
    assert np.array_equal(back, exp.c)


@pytest.mark.parametrize("build", [
    lambda: BathSpec(OhmicCircular(zeta=0.3, nu=2.0), 3.0, 3.0, 10),
    lambda: BathSpec(OhmicExponential(eta=0.3, gamma=6.0), 3.0, 5.0, 10),
    lambda: BathSpec(OhmicCircular(zeta=0.3, nu=2.0), -1.0, 2.0, 10),
    lambda: BathSpec(OhmicCircular(zeta=0.3, nu=2.0), 3.0, 2.0, 1),
    lambda: OhmicCircular(zeta=-0.1, nu=2.0),
    lambda: OhmicExponential(eta=0.1, gamma=0.0),
])
def test_invalid_bath_parameters_are_rejected(build):
    with pytest.raises(ConfigError):
        build()
