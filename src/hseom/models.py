"""System models: the dissipative qubit, multi-qubit Pauli algebra, and the
p-spin annealing Hamiltonian on its permutation-symmetric states, plus
initial-state builders.

Conventions (fixed here, used everywhere): hbar = 1; qubit site i maps to
bit i of the computational basis label with bit 0 least significant; |1> is
the sigma_z = +1 eigenstate.  The p-spin model is not written on that
register: its schedule, coupling and start are invariant under qubit
permutations, so it runs on the Ncal + 1 symmetric (Dicke) states, basis
state k holding k up spins, each standing for C(Ncal, k) register states
(``SystemModel.multiplicity``).

There is one operator type, :class:`Operator`: a pruned, sorted CSR
matrix with ``dim``, ``apply`` along the last axis, ``to_dense``
(refused above ``DENSIFY_DIM_LIMIT``) and ``to_csr``.  Its
four backings only build that matrix: from a dense matrix, a diagonal, the
bit masks and phases of a Pauli sum (never densified), or a scaled sum of
other operators, summed on first use.  The engine only ever reads
``to_csr``, so no backing is tied to a size.

An initial state is always a list of weighted pure vectors, its
``components()``: one vector (:class:`PureState`) or a convex mixture
(:class:`MixedState`).  The observables run one forward and one adjoint
sweep per component and read each result off their reduced matrix with
one ``np.einsum``, no BLAS (see :mod:`hseom.observables`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .errors import ConfigError, ResourceLimitError

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "DenseOperator", "DiagonalOperator", "PauliTerm", "PauliSumOperator",
    "ScaledSumOperator", "Operator",
    "SystemModel", "spin_boson", "pure_dephasing", "pspin_annealing",
    "PureState", "MixedState", "InitialState", "uniform_superposition",
    "thermal_state",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1> -> +1

DENSIFY_DIM_LIMIT = 4096  # largest operator to_dense will build
# relative energy tolerance that groups eigenvalues into one level
_LEVEL_TOL = 1e-8


def _pruned_csr(matrix) -> sparse.csr_matrix:
    """Complex CSR with sorted indices and no stored zeros.

    Entries that cancel in a sum stay stored as zeros, which every
    product would otherwise touch.
    """
    out = sparse.csr_matrix(matrix, dtype=complex)
    out.eliminate_zeros()
    out.sort_indices()
    return out


class Operator:
    """A square complex matrix, held as one pruned CSR.

    The backings below only build that matrix; applying, densifying and
    handing it out are defined here once.
    """

    def __init__(self, matrix):
        if np.ndim(matrix) != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        self._csr = _pruned_csr(matrix)
        self.dim = self._csr.shape[0]

    def apply(self, vec):
        """The operator along the last axis of ``vec``, of any shape."""
        vec = np.asarray(vec)
        if vec.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: operator {self.dim}, "
                             f"vector {vec.shape[-1]}")
        rows = vec.reshape(-1, self.dim)
        return (self._csr @ rows.T).T.reshape(vec.shape)

    def to_dense(self):
        if self.dim > DENSIFY_DIM_LIMIT:
            raise ResourceLimitError(
                f"refusing to densify a {self.dim}-dimensional operator")
        return self._csr.toarray()

    def to_csr(self) -> sparse.csr_matrix:
        """The stored matrix itself, not a copy: callers must not write to it."""
        return self._csr


class DenseOperator(Operator):
    """A plain complex matrix."""

    def __init__(self, matrix):
        super().__init__(np.asarray(matrix, dtype=complex))


class DiagonalOperator(Operator):
    """Operator diagonal in the computational basis."""

    def __init__(self, diagonal):
        super().__init__(sparse.diags(np.asarray(diagonal, dtype=complex)))


@dataclasses.dataclass(frozen=True)
class PauliTerm:
    """coefficient times a product of single-site Pauli factors.

    ``factors`` maps site index to one of "X", "Y", "Z"; an empty map is the
    identity term.
    """

    coefficient: float
    factors: Tuple[Tuple[int, str], ...]

    def __post_init__(self):
        for site, axis in self.factors:
            if axis not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli axis {axis!r}")
            if site < 0:
                raise ValueError("site indices must be non-negative")


class PauliSumOperator(Operator):
    """Sum of Pauli product terms on an n-qubit register.

    A term is a bit-mask permutation plus a per-source-state phase: entry
    (source ^ mask, source) = phase(source).  The CSR is built from those
    entries directly, never from a dense matrix.
    """

    def __init__(self, n_qubits: int, terms: Sequence[PauliTerm]):
        dim = 1 << n_qubits
        idx = np.arange(dim)
        rows, phases = [idx[:0]], [np.zeros(0, complex)]
        for term in terms:
            mask = 0
            phase = np.full(dim, term.coefficient, dtype=complex)
            for site, axis in term.factors:
                if site >= n_qubits:
                    raise ValueError(f"site {site} outside {n_qubits}-qubit register")
                bit = (idx >> site) & 1
                if axis == "X":
                    mask |= 1 << site
                elif axis == "Y":
                    mask |= 1 << site
                    phase = phase * (1j * (1.0 - 2.0 * bit))
                else:  # Z: +1 on bit 1
                    phase = phase * (2.0 * bit - 1.0)
            rows.append(idx ^ mask)
            phases.append(phase)
        cols = np.tile(idx, len(terms))
        super().__init__(sparse.coo_matrix(
            (np.concatenate(phases), (np.concatenate(rows), cols)),
            shape=(dim, dim)))


class ScaledSumOperator(Operator):
    """a1 * op1 + a2 * op2 + ..., summed into its CSR on first use.

    ``hamiltonian_at`` builds one per call.  ``to_dense`` sums the parts'
    dense forms, so the schedule oracle, which densifies one at every ODE
    stage, never builds the CSR.
    """

    def __init__(self, parts: Sequence[Tuple[float, Operator]]):
        if not parts:
            raise ValueError("empty operator sum")
        self.parts = tuple(parts)
        self.dim = self.parts[0][1].dim
        for _, op in self.parts:
            if op.dim != self.dim:
                raise ValueError("operator dimensions differ in sum")

    @functools.cached_property
    def _csr(self):
        return _pruned_csr(sum(coef * op.to_csr() for coef, op in self.parts))

    def to_dense(self):
        return sum(coef * op.to_dense() for coef, op in self.parts)


def _hermitian_csr(op: Operator, label: str) -> sparse.csr_matrix:
    """The operator as CSR, refused unless it equals its adjoint."""
    mat = op.to_csr()
    dev = float(abs(mat - mat.conj().T).max())
    if dev > 1e-12:
        raise ConfigError(f"{label} is not Hermitian (deviation {dev:.2e})",
                          section="model")
    return mat


@dataclasses.dataclass(eq=False)
class SystemModel:
    """The system Hamiltonian (possibly scheduled) and coupling operator.

    A scheduled Hamiltonian must be the linear ramp
    H(tau) = (1 - tau/t_f) H(0) + (tau/t_f) H(t_f).  ``hamiltonian_at``
    must be pure; it is sampled at 5 points across [0, t_f] at
    construction, and a schedule that leaves the ramp there is refused.
    Construction also takes the CSR forms the engine is assembled from,
    each checked Hermitian exactly: ``V_csr``, and ``ramp`` = (H(0),
    H(t_f)), whose two entries are one matrix for a fixed model.
    ``multiplicity`` is the number of states of the underlying system that
    each basis state stands for: ones (the default) for a model written on
    all of them, C(Ncal, k) for the p-spin model's symmetric states.
    """

    dim: int
    V: Operator
    time_dependent: bool
    _ham_at: Callable[[float], Operator]
    t_f: float = 0.0
    multiplicity: Optional[np.ndarray] = None

    def hamiltonian_at(self, tau: float) -> Operator:
        return self._ham_at(tau)

    def __post_init__(self):
        if self.V.dim != self.dim:
            raise ConfigError("coupling dimension does not match system",
                              section="model")
        self.multiplicity = np.ones(self.dim) if self.multiplicity is None \
            else np.asarray(self.multiplicity, dtype=float)
        if self.multiplicity.shape != (self.dim,) \
                or not np.all(self.multiplicity >= 1.0):
            raise ConfigError("multiplicity needs one entry >= 1 per basis "
                              "state", section="model")
        self.V_csr = _hermitian_csr(self.V, "coupling operator")
        start = _hermitian_csr(self.hamiltonian_at(0.0), "H(tau=0.0)")
        if not self.time_dependent:
            self.ramp = (start, start)
            return
        if not self.t_f > 0:
            raise ConfigError("a scheduled model needs t_f > 0",
                              section="model", key="t_f")
        end = _hermitian_csr(self.hamiltonian_at(self.t_f),
                             f"H(tau={self.t_f})")
        scale = max(1.0, abs(start).max(), abs(end).max())
        for tau in np.linspace(0.0, self.t_f, 5)[1:-1]:
            r = tau / self.t_f
            dev = float(abs(self.hamiltonian_at(tau).to_csr()
                            - ((1.0 - r) * start + r * end)).max())
            if dev > 1e-12 * scale:
                raise ConfigError(
                    f"H(tau={tau}) is off the linear ramp between H(0) and "
                    f"H(t_f) by {dev:.2e}", section="model")
        self.ramp = (start, end)


def spin_boson(omega0: float) -> SystemModel:
    """Dissipative qubit: H = -(omega0/2) sigma_z, V = -(1/2) sigma_x.

    With this sign, |1> (sigma_z = +1) is the ground state at energy
    -omega0/2 and the coupling flips it to |0>.
    """
    if not omega0 > 0:
        raise ConfigError("omega0 must be positive", section="model",
                          key="omega0")
    ham = DenseOperator(-(omega0 / 2.0) * SIGMA_Z)
    return SystemModel(dim=2, V=DenseOperator(-0.5 * SIGMA_X),
                       time_dependent=False, _ham_at=lambda tau: ham)


def pure_dephasing(omega0: float) -> SystemModel:
    """Qubit with commuting coupling: H = -(omega0/2) sigma_z, V = sigma_z / 2.

    Populations are exactly conserved; only the coherence decays.  Used to
    pit the full contour machinery against the exact dephasing factor.
    """
    if not omega0 > 0:
        raise ConfigError("omega0 must be positive", section="model",
                          key="omega0")
    ham = DenseOperator(-(omega0 / 2.0) * SIGMA_Z)
    return SystemModel(dim=2, V=DenseOperator(0.5 * SIGMA_Z),
                       time_dependent=False, _ham_at=lambda tau: ham)


def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, as sums of log((n - j + 1) / j).

    Each half is summed from its own end and mirrored, so the two ends
    are exactly 0 and nothing overflows at any n.
    """
    j = np.arange(1, n // 2 + 1)
    half = np.concatenate(([0.0], np.cumsum(np.log((n - j + 1.0) / j))))
    return np.concatenate((half, half[:n + 1 - half.size][::-1]))


def pspin_annealing(Ncal: int, Gamma: float, p: int, t_f: float) -> SystemModel:
    """Annealing schedule H(tau) = (1 - tau/t_f) H0 + (tau/t_f) H1 on the
    Ncal + 1 permutation-symmetric states.

    H0 = -Gamma sum_i sigma_i^x is the transverse driver; the target
    H1 = -Ncal (sum_i sigma_i^z / Ncal)^p and the bath coupling
    V = sum_i sigma_i^z are diagonal in the magnetization.  All three, and
    the uniform start, are invariant under qubit permutations, so the
    hierarchy never leaves the symmetric states.  Basis state k holds k up
    spins, m = 2k - Ncal; the driver couples k and k + 1 with
    -Gamma sqrt((Ncal - k)(k + 1)), the target is -Ncal (m/Ncal)^p, so
    k = Ncal sits at -Ncal, and V is m.  State k stands for C(Ncal, k)
    register states, its ``multiplicity``.  Every operator is sparse, so
    the size is bounded by the byte budget of ``cli`` alone.
    """
    if Ncal < 1:
        raise ConfigError("Ncal must be >= 1", section="model", key="Ncal")
    if p < 1:
        raise ConfigError("p must be >= 1", section="model", key="p")
    if not t_f > 0:
        raise ConfigError("t_f must be positive", section="model", key="t_f")
    k = np.arange(Ncal + 1)
    m = 2.0 * k - Ncal
    hop = -Gamma * np.sqrt((Ncal - k[:-1]) * (k[:-1] + 1.0))
    h0 = Operator(sparse.diags([hop, hop], [-1, 1]))
    h1 = DiagonalOperator(-Ncal * (m / Ncal) ** p)
    v = DiagonalOperator(m)

    def ham_at(tau):
        r = tau / t_f
        return ScaledSumOperator([(1.0 - r, h0), (r, h1)])

    with np.errstate(over="ignore"):  # inf past the float range, k ~ Ncal/2
        multiplicity = np.round(np.exp(_log_binomials(Ncal)))
    return SystemModel(dim=Ncal + 1, V=v, time_dependent=True,
                       _ham_at=ham_at, t_f=t_f, multiplicity=multiplicity)


@dataclasses.dataclass(eq=False)
class PureState:
    """A normalized state vector."""

    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)
        norm = np.linalg.norm(self.vector)
        if not abs(norm - 1.0) <= 1e-6:
            raise ConfigError(f"state vector norm is {norm:.6f}, expected 1",
                              section="initial")

    def components(self):
        return [(1.0, self.vector)]

    def density(self):
        return np.outer(self.vector, self.vector.conj())


@dataclasses.dataclass(eq=False)
class MixedState:
    """A convex mixture sum_i w_i |v_i><v_i| of normalized components."""

    parts: List[Tuple[float, np.ndarray]]

    def __post_init__(self):
        for w, _ in self.parts:
            if not 0.0 <= w < math.inf:
                raise ConfigError(f"mixture weight {w} is not a finite "
                                  f"non-negative number", section="initial")
        total = sum(w for w, _ in self.parts)
        if not abs(total - 1.0) <= 1e-10:
            raise ConfigError(f"mixture weights sum to {total}, expected 1",
                              section="initial")
        self.parts = [(float(w), PureState(v).vector) for w, v in self.parts]

    def components(self):
        return list(self.parts)

    def density(self):
        return sum(w * np.outer(v, v.conj()) for w, v in self.parts)


InitialState = PureState | MixedState


def uniform_superposition(Ncal: int) -> PureState:
    """The equal superposition of all 2^Ncal register states, written on
    the symmetric states of :func:`pspin_annealing`: amplitude
    sqrt(C(Ncal, k) / 2^Ncal) on state k, from log C(Ncal, k), so that
    no factor overflows at any Ncal."""
    if Ncal < 1:
        raise ConfigError("Ncal must be >= 1", section="model", key="Ncal")
    return PureState(np.exp(0.5 * (_log_binomials(Ncal)
                                   - Ncal * math.log(2.0))))


def thermal_state(model: SystemModel, beta_hbar: float) -> MixedState:
    """Gibbs mixture of the (time-independent) system eigenstates.

    At beta_hbar = inf this is its limit, the ground level alone, with the
    weight split evenly over a degenerate level; levels closer than
    ``_LEVEL_TOL`` times the spectral width (at least 1) are one level.
    Components of zero weight are dropped, so they cost no sweeps.
    """
    if model.time_dependent:
        raise ConfigError("thermal_state needs a time-independent model",
                          section="initial")
    energies, states = np.linalg.eigh(model.hamiltonian_at(0.0).to_dense())
    gaps = energies - energies.min()
    if math.isinf(beta_hbar):
        weights = (gaps <= _LEVEL_TOL * max(1.0, gaps.max())).astype(float)
    else:
        weights = np.exp(-beta_hbar * gaps)
    weights /= weights.sum()
    return MixedState([(w, states[:, j]) for j, w in enumerate(weights)
                       if w > 0.0])
