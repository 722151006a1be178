"""Spectral densities and the Bessel-series expansion of the bath correlation.

Everything here works in units with hbar = 1, so beta_hbar is the single
temperature parameter and coupling strengths are plain numbers.

The bath enters the hierarchy through three ingredients bundled in
:class:`BathExpansion`: the complex coefficients ``c_k`` of the expansion
alpha(t) = sum_k c_k J_k(Omega t), the banded matrix ``eta`` that closes the
basis-function derivatives, and the initial values ``phi_at_zero``.  The
c_k come from a fixed Gauss-Legendre rule in theta = arccos x, with
n = max(64, K) nodes on each of [0, pi/2] and [pi/2, pi]; the sums with n
and 2n nodes must agree, or :func:`compute_coefficients` refuses.  The
exact alpha(t) by adaptive quadrature (:func:`alpha_quadrature`) is kept as
the reference the expansion is judged against; the propagation code never
calls it.  Only that reference and :func:`tail_mass` import
:mod:`scipy.integrate`, and they do so when called, so a run never loads it.

Temperature enters in one place, the occupation-weighted density
J(omega) / (1 - e^{-beta_hbar omega}) of :func:`_occupied`; the
coefficients, alpha(t) and the tail mass all integrate it.  The Bessel
functions J_k come from :func:`scipy.special.jv`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

import numpy as np
from scipy import sparse, special

from .errors import ConfigError, NumericalError, QuadratureError

__all__ = [
    "INFINITE",
    "OhmicExponential",
    "OhmicCircular",
    "SpectralDensity",
    "BathSpec",
    "BathExpansion",
    "alpha_quadrature",
    "compute_coefficients",
    "alpha_reconstruct",
    "jacobi_anger_residual",
    "build_eta",
    "minimal_K",
    "tail_mass",
    "reconstruction_error",
    "write_expansion",
    "read_expansion",
]

# Zero-temperature tag for beta_hbar.  The occupation factor becomes the
# step theta(omega) in this limit, which :func:`_occupied` takes exactly
# rather than through a large sentinel temperature.
INFINITE = math.inf

_QUAD_LIMIT = 400
# Largest disagreement allowed between the n- and 2n-node coefficient
# integrals, relative to the largest |integral|.
_COEFF_RTOL = 1e-10


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
    """The (Omega, K, c_k, eta, phi_k(0)) bundle consumed by the hierarchy."""

    Omega: float
    K: int
    c: np.ndarray            # complex, shape (K,)
    eta: sparse.csr_matrix   # real, K x K, banded
    phi_at_zero: np.ndarray  # (1, 0, 0, ...)


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


def _chebyshev_t(k: int, x):
    # cos(k arccos x) is exact on [-1, 1]; jacobi_anger_residual checks
    # its x.
    return np.cos(k * np.arccos(x))


def _node_count(K: int) -> int:
    """Gauss-Legendre nodes per half of [0, pi] for K coefficients."""
    return max(64, K)


def _theta_integrals(spec: BathSpec, n: int) -> np.ndarray:
    """int_0^pi cos(k theta) occ(Omega cos theta) sin(theta) dtheta, k < K.

    Gauss-Legendre with n nodes on each of [0, pi/2] and [pi/2, pi], so
    that the integrand's kink at omega = 0 (|omega| in the exponential
    density, the step at zero temperature) falls on the split.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    quarter = np.pi / 4.0
    theta = np.concatenate([quarter * (nodes + 1.0), quarter * (nodes + 3.0)])
    g = np.tile(quarter * weights, 2) * np.sin(theta) \
        * _occupied(spec, spec.Omega * np.cos(theta))
    return np.cos(np.outer(np.arange(spec.K), theta)) @ g


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
    ``_COEFF_RTOL`` times the largest |integral|.
    """
    Om, K = spec.Omega, spec.K
    n = _node_count(K)
    coarse = _theta_integrals(spec, n)
    total = _theta_integrals(spec, 2 * n)
    miss = float(np.abs(total - coarse).max())
    if miss > _COEFF_RTOL * np.abs(total).max():
        raise QuadratureError(
            f"{n} and {2 * n} Gauss-Legendre nodes per half disagree on the "
            f"K = {K} coefficients", residual=miss)
    ks = np.arange(K)
    c = np.where(ks == 0, 1.0, 2.0) * (-1j) ** ks * Om * total

    phi0 = np.zeros(K)
    phi0[0] = 1.0
    return BathExpansion(Omega=Om, K=K, c=c, eta=build_eta(K, Om),
                         phi_at_zero=phi0)


def alpha_reconstruct(expansion: BathExpansion, t):
    """Sum_k c_k J_k(Omega t) for scalar or array t."""
    z = expansion.Omega * np.asarray(t, dtype=float)
    ladder = special.jv.outer(np.arange(expansion.K), z)
    out = np.tensordot(expansion.c, ladder, axes=(0, 0))
    return complex(out) if np.ndim(t) == 0 else out


def jacobi_anger_residual(x: float, t: float, K: int, Omega: float) -> float:
    """How well K terms of the plane-wave expansion reproduce e^{-i Omega x t}.

    Returns |e^{-i Omega x t} - sum_{k<K} (2 - delta_{0k}) (-i)^k T_k(x) J_k(Omega t)|.
    The residual is the direct diagnostic for choosing K at a given horizon.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError("x must lie in [-1, 1]")
    z = Omega * t
    ks = np.arange(K)
    terms = np.where(ks == 0, 1.0, 2.0) * (-1j) ** ks \
        * _chebyshev_t(ks, x) * special.jv(ks, z)
    return float(abs(np.exp(-1j * z * x) - terms.sum()))


def minimal_K(Omega: float, horizon: float, *, tol: float = 1e-6,
              K_max: int = 512) -> int:
    """Smallest K whose plane-wave residual stays below tol up to the horizon.

    Probes x = cos(j pi / 8) for j = 0..8 and 32 times in (0, horizon]; the
    residual is maximal at |x| = 1, so the grid is generous.

    Raises
    ------
    NumericalError
        If no K <= K_max reaches the tolerance.
    """
    if horizon <= 0:
        return 2
    xs = np.cos(np.linspace(0.0, np.pi, 9))
    ts = np.linspace(0.0, horizon, 33)[1:]
    z = Omega * ts
    ks = np.arange(K_max)
    ladder = special.jv.outer(ks, z)                       # [K_max, nt]
    pref = np.where(ks == 0, 1.0, 2.0) * (-1j) ** ks       # [K_max]
    cheb = np.cos(ks[:, None] * np.arccos(xs)[None, :])    # [K_max, nx]
    # partial[k, ix, it] = sum of the first k+1 terms
    terms = pref[:, None, None] * cheb[:, :, None] * ladder[:, None, :]
    partial = np.cumsum(terms, axis=0)
    target = np.exp(-1j * z[None, :] * xs[:, None])        # [nx, nt]
    resid = np.abs(target[None, :, :] - partial).max(axis=(1, 2))
    ok = np.nonzero(resid < tol)[0]
    if ok.size == 0:
        raise NumericalError(
            f"no K <= {K_max} reaches residual {tol:.1e} at horizon "
            f"{horizon} (best {resid.min():.2e})")
    return int(ok[0]) + 1


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
    """Max relative deviation of the expansion from quadrature over a grid."""
    ts = np.asarray(t_grid, dtype=float)
    exact = np.array([alpha_quadrature(spec, t) for t in ts])
    approx = alpha_reconstruct(expansion, ts)
    return float(np.abs(exact - approx).max() / np.abs(exact).max())


# ---------------------------------------------------------------------------
# Plain-text expansion files: a header block of '# key = value' lines followed
# by one 'k re_c im_c' row per coefficient.  Floats are written with repr so
# a read-back is bit-identical.

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


def read_expansion(path):
    """Read a file written by :func:`write_expansion`.

    Returns
    -------
    (BathSpec, BathExpansion)
    """
    header = {}
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    header[key.strip()] = val.strip()
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ConfigError(f"malformed coefficient row: {line!r}")
            rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
    try:
        variant = header["density"]
        if variant == "ohmic_exponential":
            density = OhmicExponential(eta=float(header["eta"]),
                                       gamma=float(header["gamma"]))
        elif variant == "ohmic_circular":
            density = OhmicCircular(zeta=float(header["zeta"]),
                                    nu=float(header["nu"]))
        else:
            raise ConfigError(f"unknown density variant {variant!r}",
                              section="bath", key="density")
        beta_hbar = float(header["beta_hbar"])
        Omega = float(header["Omega"])
        K = int(header["K"])
    except KeyError as exc:
        raise ConfigError(f"expansion file missing header field {exc}") from exc
    if len(rows) != K:
        raise ConfigError(f"expected {K} coefficient rows, found {len(rows)}")
    c = np.zeros(K, dtype=complex)
    for k, re, im in rows:
        if not 0 <= k < K:
            raise ConfigError(f"coefficient index {k} out of range")
        c[k] = re + 1j * im
    phi0 = np.zeros(K)
    phi0[0] = 1.0
    spec = BathSpec(density=density, beta_hbar=beta_hbar, Omega=Omega, K=K)
    expansion = BathExpansion(Omega=Omega, K=K, c=c,
                              eta=build_eta(K, Omega), phi_at_zero=phi0)
    return spec, expansion
