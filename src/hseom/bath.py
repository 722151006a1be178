"""Spectral densities and the Bessel-series expansion of the bath correlation.

Everything here works in units with hbar = 1, so beta_hbar is the single
temperature parameter and coupling strengths are plain numbers.

The bath enters the hierarchy through two ingredients bundled in
:class:`BathExpansion`: the complex coefficients ``c_k`` of the expansion
alpha(t) = sum_k c_k J_k(Omega t) and the banded matrix ``eta`` that closes
the basis-function derivatives.  The basis functions' initial values need
no field: phi_k(0) = J_k(0) = delta_{k0}.

One fixed Gauss-Legendre rule in theta = arccos x gives both the c_k
(:func:`compute_coefficients`) and alpha(t) itself (:func:`alpha_theta`),
with n nodes on each of [0, pi/2] and [pi/2, pi]; the sums with n and 2n
nodes must agree, or both refuse.  K is judged by the error it leaves: the
relative error of the K-term sum against :func:`alpha_theta` over a run's
horizon (:func:`reconstruction_error`).  The exact alpha(t) by adaptive
quadrature (:func:`alpha_quadrature`) is kept as an independent reference
for the tests and oracles; the run and bath-fit paths never call it.  Only
that reference and :func:`tail_mass` import :mod:`scipy.integrate`, and
they do so when called, so a run never loads it.

Temperature enters in one place, the occupation-weighted density
J(omega) / (1 - e^{-beta_hbar omega}) of :func:`_occupied`; the
coefficients, alpha(t) and the tail mass all integrate it.  The Bessel
functions J_k come from one FFT of Bessel's integral (:func:`_bessel_ladder`),
so the run path loads no :mod:`scipy.special`.

The run path calls no BLAS or LAPACK either.  The Gauss-Legendre rule comes
from Newton's method on the Legendre recurrence (:func:`_gauss_legendre`),
not from an eigensolve, and every sum is an ``np.einsum`` in numpy's own
loops.  A BLAS call would wake OpenBLAS's thread pool, whose threads then
busy-wait for further work and take a core from the sweeps that follow.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

import numpy as np
from scipy import sparse

from .errors import ConfigError, QuadratureError

__all__ = [
    "INFINITE",
    "OhmicExponential",
    "OhmicCircular",
    "SpectralDensity",
    "BathSpec",
    "BathExpansion",
    "alpha_quadrature",
    "alpha_theta",
    "compute_coefficients",
    "alpha_reconstruct",
    "build_eta",
    "tail_mass",
    "reconstruction_error",
    "write_expansion",
]

# Zero-temperature tag for beta_hbar.  The occupation factor becomes the
# step theta(omega) in this limit, which :func:`_occupied` takes exactly
# rather than through a large sentinel temperature.
INFINITE = math.inf

_QUAD_LIMIT = 400
# Largest disagreement allowed between the n- and 2n-node theta-rule sums,
# relative to the largest |sum|.
_RULE_RTOL = 1e-10
# Cap on the Newton steps of :func:`_gauss_legendre`; from n = 8 to
# n = 2000 they number three or four.
_NEWTON_STEPS = 8


@dataclasses.dataclass(frozen=True)
class OhmicExponential:
    """J(omega) = eta * omega * exp(-|omega|/gamma)."""

    eta: float
    gamma: float

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigError("eta must be positive", section="bath", key="eta")
        if not self.gamma > 0:
            raise ConfigError("gamma must be positive", section="bath", key="gamma")

    def evaluate(self, omega):
        w = np.asarray(omega, dtype=float)
        return w * self.over_omega(w)

    def over_omega(self, omega):
        """J(omega)/omega, an even function regular at omega = 0."""
        w = np.asarray(omega, dtype=float)
        return self.eta * np.exp(-np.abs(w) / self.gamma)

    def header_items(self):
        return (("density", "ohmic_exponential"),
                ("eta", self.eta), ("gamma", self.gamma))


@dataclasses.dataclass(frozen=True)
class OhmicCircular:
    """J(omega) = zeta * omega * sqrt(1 - (omega/nu)^2), zero for |omega| > nu."""

    zeta: float
    nu: float

    def __post_init__(self):
        if not self.zeta > 0:
            raise ConfigError("zeta must be positive", section="bath", key="zeta")
        if not self.nu > 0:
            raise ConfigError("nu must be positive", section="bath", key="nu")

    def evaluate(self, omega):
        w = np.asarray(omega, dtype=float)
        return w * self.over_omega(w)

    def over_omega(self, omega):
        w = np.asarray(omega, dtype=float)
        return self.zeta * np.sqrt(np.maximum(1.0 - (w / self.nu) ** 2, 0.0))

    def header_items(self):
        return (("density", "ohmic_circular"),
                ("zeta", self.zeta), ("nu", self.nu))


SpectralDensity = Union[OhmicExponential, OhmicCircular]


@dataclasses.dataclass(frozen=True)
class BathSpec:
    """A spectral density with temperature and expansion parameters.

    Parameters
    ----------
    density : SpectralDensity
    beta_hbar : float
        Inverse temperature times hbar; ``INFINITE`` is zero temperature.
    Omega : float
        Expansion cutoff frequency.  Must equal ``nu`` for the circular
        density (where the expansion is exact on the support) and must
        exceed ``gamma`` for the exponential one.
    K : int
        Number of Bessel basis functions, at least 2.
    """

    density: SpectralDensity
    beta_hbar: float
    Omega: float
    K: int

    def __post_init__(self):
        if not (self.beta_hbar > 0):
            raise ConfigError("beta_hbar must be positive or infinite",
                              section="bath", key="beta_hbar")
        if not self.Omega > 0:
            raise ConfigError("Omega must be positive", section="bath", key="Omega")
        if self.K < 2:
            raise ConfigError("K must be at least 2", section="bath", key="K")
        if isinstance(self.density, OhmicCircular):
            if not math.isclose(self.Omega, self.density.nu, rel_tol=1e-12):
                raise ConfigError(
                    f"circular density requires Omega = nu, got Omega={self.Omega} "
                    f"nu={self.density.nu}", section="bath", key="Omega")
        elif isinstance(self.density, OhmicExponential):
            if not self.Omega > self.density.gamma:
                raise ConfigError(
                    f"exponential density requires Omega > gamma, got "
                    f"Omega={self.Omega} gamma={self.density.gamma}",
                    section="bath", key="Omega")

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta_hbar)


@dataclasses.dataclass(frozen=True, eq=False)
class BathExpansion:
    """The (Omega, K, c_k, eta) bundle consumed by the hierarchy."""

    Omega: float
    K: int
    c: np.ndarray            # complex, shape (K,)
    eta: sparse.csr_matrix   # real, K x K, banded


def _bose_ratio(y):
    """y / (1 - exp(-y)), with the removable singularity at y = 0 filled in.

    Equals y times the Bose occupation shifted by one; the series branch
    keeps full accuracy where the direct form loses digits.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = np.abs(y) < 1e-4
    ys = y[small]
    out[small] = 1.0 + ys / 2.0 + ys * ys / 12.0
    yb = y[~small]
    with np.errstate(over="ignore"):
        out[~small] = yb / (-np.expm1(-yb))
    return out


def _occupied(spec: BathSpec, omega):
    """J(omega) / (1 - e^{-beta_hbar omega}), the occupation-weighted density.

    Written as (J/omega) * y/(1 - e^{-y}) / beta_hbar with y = beta_hbar omega,
    which is regular at omega = 0.  At zero temperature it is the limit
    theta(omega) J(omega).  The only place the temperature branches.
    """
    w = np.asarray(omega, dtype=float)
    dens = spec.density
    if spec.zero_temperature:
        return np.where(w > 0, dens.evaluate(w), 0.0)
    bh = spec.beta_hbar
    return dens.over_omega(w) * _bose_ratio(bh * w) / bh


def _quad_checked(f, a, b, **kw):
    from scipy import integrate  # lazy: 0.15 s of import that no run needs

    res = integrate.quad(f, a, b, full_output=1, limit=_QUAD_LIMIT, **kw)
    val, abserr = res[0], res[1]
    if len(res) > 3 and abserr > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError(str(res[3]), residual=abserr)
    return val


def alpha_quadrature(spec: BathSpec, t: float) -> complex:
    """Bath correlation alpha(t) by adaptive quadrature (the reference path).

    Evaluates Omega * int_{-1}^{1} dx e^{-i Omega x t} occ(Omega x) with the
    occupation-weighted density occ of :func:`_occupied`, on [-1, 0] and
    [0, 1].

    The oscillatory factor is handled by QUADPACK's cos/sin weights, which
    stay accurate for large Omega*t.

    Raises
    ------
    QuadratureError
        If the adaptive rule fails to converge; carries the residual estimate.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    Om = spec.Omega

    def f(x):
        return float(_occupied(spec, Om * x))

    re = im = 0.0
    for a, b in ((-1.0, 0.0), (0.0, 1.0)):
        re += _quad_checked(f, a, b, weight="cos", wvar=Om * t)
        im += _quad_checked(f, a, b, weight="sin", wvar=Om * t)
    return Om * (re - 1j * im)


def build_eta(K: int, Omega: float) -> sparse.csr_matrix:
    """Banded K x K matrix closing the Bessel derivative recursion.

    Nonzeros: (0,1) = -Omega; (k,k-1) = Omega/2 for k >= 1;
    (k,k+1) = -Omega/2 for 1 <= k <= K-2.  The last row keeps only its
    sub-diagonal entry, which is where the K-term truncation enters.
    """
    if K < 2:
        raise ConfigError("K must be at least 2", section="bath", key="K")
    mat = sparse.lil_matrix((K, K))
    mat[0, 1] = -Omega
    for k in range(1, K):
        mat[k, k - 1] = Omega / 2.0
        if k <= K - 2:
            mat[k, k + 1] = -Omega / 2.0
    return mat.tocsr()


def _node_count(K: int, z_max: float = 0.0) -> int:
    """Gauss-Legendre nodes per half of [0, pi].

    Enough for K coefficients and for e^{-i z cos theta} up to z = z_max,
    which turns through z_max radians on each half.
    """
    return max(64, K, math.ceil(z_max))


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by their three-term recurrences.

        P_{j+1} = x P_j + j (x P_j - P_{j-1}) / (j + 1),
        P'_{j+1} = P'_{j-1} + (2j + 1) P_j.

    The derivative is summed, not formed as n (P_{n-1} - x P_n)/(x^2 - 1):
    next to the outermost roots P_{n-1} is small, the recurrence loses
    about four digits in it at n = 128, and the weights would inherit them.
    """
    p_prev, p = np.ones_like(x), x
    d_prev, d = np.zeros_like(x), np.ones_like(x)
    for j in range(1, n):
        xp = x * p
        p_prev, p, d_prev, d = (p, xp + (xp - p_prev) * (j / (j + 1)),
                                d, d_prev + (2 * j + 1) * p)
    return p, d


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from Tricomi's estimate of the roots,
    x_k ~ (1 - 1/(8 n^2) + 1/(8 n^3)) cos(pi (k - 1/4)/(n + 1/2)), with P_n
    and P_n' from :func:`_legendre` over the ceil(n/2) roots of one half;
    the weights are 2/((1 - x^2) P_n'(x)^2).  The rule is built symmetric,
    with the node 0 for odd n.  It takes O(n^2) operations and no
    eigensolve (Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013)),
    and numpy's own loops only, so it wakes no BLAS thread.

    Raises :class:`QuadratureError` if ``_NEWTON_STEPS`` steps leave a
    node unconverged.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(
        np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly, so Newton leaves it there
    for _ in range(_NEWTON_STEPS):
        p, d = _legendre(n, x)
        step = p / d
        if np.abs(step).max() < 1e-14:
            # Newton converges quadratically with a constant of order n^2,
            # so this step leaves x exact to rounding.  P_n' follows it to
            # first order, with P_n'' from Legendre's equation
            # (1 - x^2) P'' = 2x P' - n(n + 1) P.
            d = d - step * (2.0 * x * d - n * (n + 1) * p) / (
                (1.0 - x) * (1.0 + x))
            x = x - step
            break
        x = x - step
    else:
        raise QuadratureError(
            f"Newton's method left the {n}-point Gauss-Legendre nodes "
            f"unconverged", residual=float(np.abs(step).max()))
    w = 2.0 / ((1.0 - x) * (1.0 + x) * d * d)
    half = n // 2
    return (np.concatenate([-x, x[:half][::-1]]),
            np.concatenate([w, w[:half][::-1]]))


def _theta_rule(spec: BathSpec, n: int):
    """Nodes theta on [0, pi] and the weighted integrand g at them.

    Gauss-Legendre (:func:`_gauss_legendre`) with n nodes on each of
    [0, pi/2] and [pi/2, pi], so that the integrand's kink at omega = 0
    (|omega| in the exponential density, the step at zero temperature)
    falls on the split.  For a smooth f, int_0^pi f(theta)
    occ(Omega cos theta) sin(theta) dtheta is sum_j f(theta_j) g_j.
    """
    nodes, weights = _gauss_legendre(n)
    quarter = np.pi / 4.0
    theta = np.concatenate([quarter * (nodes + 1.0), quarter * (nodes + 3.0)])
    g = np.tile(quarter * weights, 2) * np.sin(theta) \
        * _occupied(spec, spec.Omega * np.cos(theta))
    return theta, g


def _theta_integrals(spec: BathSpec, n: int, kernel, what: str) -> np.ndarray:
    """kernel(theta) times g with n and with 2n nodes per half; the 2n sums.

    The sums run in numpy's own einsum loops, not in BLAS, whose thread
    pool would wake and busy-wait through the sweeps that follow.  Raises
    :class:`QuadratureError` if the two differ by more than ``_RULE_RTOL``
    times the largest |sum|.
    """
    coarse, total = (np.einsum("ij,j->i", kernel(theta), g) for theta, g in
                     (_theta_rule(spec, n), _theta_rule(spec, 2 * n)))
    miss = float(np.abs(total - coarse).max())
    if miss > _RULE_RTOL * np.abs(total).max():
        raise QuadratureError(
            f"{n} and {2 * n} Gauss-Legendre nodes per half disagree on "
            f"{what}", residual=miss)
    return total


def compute_coefficients(spec: BathSpec) -> BathExpansion:
    """Expansion coefficients c_k plus the eta matrix and initial values.

        c_k = Omega (2 - delta_{0k}) (-i)^k
              * int_{-1}^{1} dx T_k(x) J(Omega x) / (1 - e^{-beta_hbar Omega x}),

    with the occupation-weighted density of :func:`_occupied`; at zero
    temperature it vanishes for x < 0.  The integral is taken in
    theta = arccos x, where T_k(x) dx becomes cos(k theta) sin(theta) dtheta
    and the circular density's square-root edge at x = +-1 becomes smooth:
    a fixed Gauss-Legendre rule with n = max(64, K) nodes on each of
    [0, pi/2] and [pi/2, pi], evaluated once with n and once with 2n nodes.
    The 2n sums are returned.

    Raises :class:`QuadratureError` if the two sums differ by more than
    ``_RULE_RTOL`` times the largest |integral|.
    """
    Om, K = spec.Omega, spec.K
    ks = np.arange(K)
    total = _theta_integrals(spec, _node_count(K),
                             lambda theta: np.cos(np.outer(ks, theta)),
                             f"the K = {K} coefficients")
    c = np.where(ks == 0, 1.0, 2.0) * (-1j) ** ks * Om * total
    return BathExpansion(Omega=Om, K=K, c=c, eta=build_eta(K, Om))


def _bessel_ladder(K: int, z) -> np.ndarray:
    """J_k(z) for k = 0..K-1 at every point of z; shape (K,) + z.shape.

    Bessel's integral J_k(z) = (1/2pi) int_0^2pi e^{i(z sin theta - k theta)}
    dtheta by the trapezoid rule on n equispaced theta_j = 2 pi j/n:

        J_k(z) ~ (1/n) sum_j e^{i z sin theta_j} e^{-i k theta_j},

    which is one FFT along the n nodes of an [points, n] block.  The rule's
    error is the aliasing sum_{m != 0} J_{k+mn}(z).  With
    n = 2(ceil(max|z|) + K + 16) every aliased order is at least
    n - K > 2 max|z| + 32, where J_nu(z) is far below rounding.
    """
    z = np.asarray(z, dtype=float)
    n = 2 * (math.ceil(float(np.abs(z).max(initial=0.0))) + K + 16)
    sines = np.sin(2.0 * np.pi / n * np.arange(n))
    block = np.exp(1j * np.outer(z, sines))
    ladder = np.fft.fft(block, axis=1)[:, :K].real / n
    return ladder.T.reshape((K,) + z.shape)


def alpha_reconstruct(expansion: BathExpansion, t):
    """Sum_k c_k J_k(Omega t) for scalar or array t."""
    z = expansion.Omega * np.asarray(t, dtype=float)
    ladder = _bessel_ladder(expansion.K, z)
    out = np.einsum("k,k...->...", expansion.c, ladder)
    return complex(out) if np.ndim(t) == 0 else out


def alpha_theta(spec: BathSpec, ts) -> np.ndarray:
    """Bath correlation alpha(t) on an array of times by the theta rule.

        alpha(t) = Omega int_0^pi e^{-i Omega t cos theta}
                   occ(Omega cos theta) sin(theta) dtheta,

    the rule of :func:`compute_coefficients` with the plane wave in place
    of cos(k theta), n = max(64, K, ceil(Omega max t)) nodes per half and
    the same n-against-2n check, so it raises :class:`QuadratureError`
    where that check fails.
    """
    z = spec.Omega * np.asarray(ts, dtype=float)
    z_max = float(z.max(initial=0.0))
    return spec.Omega * _theta_integrals(
        spec, _node_count(spec.K, z_max),
        lambda theta: np.exp(-1j * np.outer(z, np.cos(theta))),
        f"alpha(t) up to Omega t = {z_max:g}")


def tail_mass(spec: BathSpec) -> float:
    """Fraction of the occupation-weighted density lying beyond |omega| = Omega.

    The expansion integrates only over [-Omega, Omega]; this reports how much
    weight that window misses.  Exactly zero for the circular density.  A
    diagnostic, not an error bound.
    """
    if isinstance(spec.density, OhmicCircular):
        return 0.0

    def w(omega):
        return float(_occupied(spec, omega))

    total = (_quad_checked(w, -np.inf, 0.0) + _quad_checked(w, 0.0, np.inf))
    tail = (_quad_checked(w, -np.inf, -spec.Omega)
            + _quad_checked(w, spec.Omega, np.inf))
    return tail / total


def reconstruction_error(spec: BathSpec, expansion: BathExpansion,
                         t_grid) -> float:
    """Max |alpha - expansion| over a grid, relative to max |alpha|.

    alpha(t) comes from :func:`alpha_theta`.
    """
    ts = np.asarray(t_grid, dtype=float)
    exact = alpha_theta(spec, ts)
    approx = alpha_reconstruct(expansion, ts)
    return float(np.abs(exact - approx).max() / np.abs(exact).max())


# ---------------------------------------------------------------------------
# Plain-text expansion files: a header block of '# key = value' lines followed
# by one 'k re_c im_c' row per coefficient.  Floats are written with repr so
# a read-back with float() is bit-identical.

def write_expansion(path, spec: BathSpec, expansion: BathExpansion) -> None:
    lines = []
    for key, val in spec.density.header_items():
        lines.append(f"# {key} = {val!r}" if isinstance(val, float)
                     else f"# {key} = {val}")
    lines.append(f"# beta_hbar = {float(spec.beta_hbar)!r}")  # inf at T = 0
    lines.append(f"# Omega = {float(spec.Omega)!r}")
    lines.append(f"# K = {spec.K}")
    lines.append("# columns: k re_c im_c")
    for k in range(expansion.K):
        lines.append(f"{k} {float(expansion.c[k].real)!r} "
                     f"{float(expansion.c[k].imag)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
