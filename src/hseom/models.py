"""System models: the dissipative qubit, multi-qubit Pauli algebra, and the
p-spin annealing Hamiltonian, plus initial-state builders.

Conventions (fixed here, used everywhere): hbar = 1; qubit site i maps to
bit i of the computational basis label with bit 0 least significant; |1> is
the sigma_z = +1 eigenstate.  Operators come in four backings sharing the
same interface (``dim``, ``apply`` along the last axis, ``to_dense``,
``to_csr``): dense matrices, diagonals, Pauli sums and scaled sums.  The
engine only ever reads ``to_csr``, which the Pauli sum builds from its bit
masks and phases without densifying, so no backing is tied to a size.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from .errors import ConfigError, ResourceLimitError

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "DenseOperator", "DiagonalOperator", "PauliTerm", "PauliSumOperator",
    "ScaledSumOperator", "Operator",
    "SystemModel", "spin_boson", "pure_dephasing", "pspin_annealing",
    "PureState", "LocalizedWithTransform", "MixedState", "InitialState",
    "uniform_superposition_transform", "thermal_state",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1> -> +1

DENSIFY_DIM_LIMIT = 4096  # largest Pauli sum to_dense will build
MAX_QUBITS = 16


def _pruned_csr(matrix) -> sparse.csr_matrix:
    """Complex CSR with sorted indices and no stored zeros.

    Entries that cancel in a sum stay stored as zeros, which every
    product would otherwise touch.
    """
    out = sparse.csr_matrix(matrix, dtype=complex)
    out.eliminate_zeros()
    out.sort_indices()
    return out


class DenseOperator:
    """A plain complex matrix."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        self.dim = self.matrix.shape[0]

    def apply(self, vec):
        vec = np.asarray(vec)
        if vec.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: operator {self.dim}, "
                             f"vector {vec.shape[-1]}")
        return vec @ self.matrix.T

    def to_dense(self):
        return self.matrix

    def to_csr(self):
        return _pruned_csr(self.matrix)


class DiagonalOperator:
    """Operator diagonal in the computational basis."""

    def __init__(self, diagonal):
        self.diagonal = np.asarray(diagonal, dtype=complex)
        self.dim = self.diagonal.shape[0]
        self._csr = None

    def apply(self, vec):
        vec = np.asarray(vec)
        if vec.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: operator {self.dim}, "
                             f"vector {vec.shape[-1]}")
        return vec * self.diagonal

    def to_dense(self):
        return np.diag(self.diagonal)

    def to_csr(self):
        """Built once; each call returns a copy."""
        if self._csr is None:
            self._csr = _pruned_csr(sparse.diags(self.diagonal))
        return self._csr.copy()


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


class PauliSumOperator:
    """Sum of Pauli product terms on an n-qubit register.

    Each term is applied by a bit-mask permutation plus a per-source-state
    phase, so one application costs O(n_terms * 2^n) with no matrix stored.
    """

    def __init__(self, n_qubits: int, terms: Sequence[PauliTerm]):
        self.n_qubits = n_qubits
        self.dim = 1 << n_qubits
        self.terms = tuple(terms)
        idx = np.arange(self.dim)
        self._masks = []
        self._phases = []
        for term in self.terms:
            mask = 0
            phase = np.full(self.dim, term.coefficient, dtype=complex)
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
            self._masks.append(mask)
            self._phases.append(phase)
        self._csr = None

    def apply(self, vec):
        vec = np.asarray(vec, dtype=complex)
        if vec.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: operator {self.dim}, "
                             f"vector {vec.shape[-1]}")
        idx = np.arange(self.dim)
        out = np.zeros_like(vec)
        for mask, phase in zip(self._masks, self._phases):
            # target index = source ^ mask, amplitude picks up phase(source)
            out[..., idx ^ mask] += phase * vec
        return out

    def to_dense(self):
        if self.dim > DENSIFY_DIM_LIMIT:
            raise ResourceLimitError(
                f"refusing to densify a {self.dim}-dimensional Pauli sum")
        return self.apply(np.eye(self.dim, dtype=complex)).T

    def to_csr(self):
        """Entry (source ^ mask, source) = phase(source) for every term.

        Built once; each call returns a copy.
        """
        if self._csr is None:
            idx = np.arange(self.dim)
            rows = np.concatenate([idx[:0]]
                                  + [idx ^ mask for mask in self._masks])
            cols = np.tile(idx, len(self._masks))
            data = np.concatenate([np.zeros(0, complex)] + self._phases)
            self._csr = _pruned_csr(sparse.coo_matrix(
                (data, (rows, cols)), shape=(self.dim, self.dim)))
        return self._csr.copy()


class ScaledSumOperator:
    """a1 * op1 + a2 * op2 + ... without forming the sum explicitly."""

    def __init__(self, parts: Sequence[Tuple[float, "Operator"]]):
        if not parts:
            raise ValueError("empty operator sum")
        self.parts = tuple(parts)
        self.dim = self.parts[0][1].dim
        for _, op in self.parts:
            if op.dim != self.dim:
                raise ValueError("operator dimensions differ in sum")

    def apply(self, vec):
        out = self.parts[0][0] * self.parts[0][1].apply(vec)
        for coef, op in self.parts[1:]:
            out += coef * op.apply(vec)
        return out

    def to_dense(self):
        return sum(coef * op.to_dense() for coef, op in self.parts)

    def to_csr(self):
        return _pruned_csr(sum(coef * op.to_csr() for coef, op in self.parts))


Operator = Union[DenseOperator, DiagonalOperator, PauliSumOperator,
                 ScaledSumOperator]


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
    """

    dim: int
    V: Operator
    time_dependent: bool
    _ham_at: Callable[[float], Operator]
    t_f: float = 0.0

    def hamiltonian_at(self, tau: float) -> Operator:
        return self._ham_at(tau)

    def __post_init__(self):
        if self.V.dim != self.dim:
            raise ConfigError("coupling dimension does not match system",
                              section="model")
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


def magnetization_values(n_qubits: int) -> np.ndarray:
    """m(b) = (number of 1 bits) - (number of 0 bits) per basis label b."""
    labels = np.arange(1 << n_qubits)
    ones = np.zeros(labels.shape, dtype=np.int64)
    for i in range(n_qubits):
        ones += (labels >> i) & 1
    return 2.0 * ones - n_qubits


def pspin_annealing(Ncal: int, Gamma: float, p: int, t_f: float) -> SystemModel:
    """Annealing schedule H(tau) = (1 - tau/t_f) H0 + (tau/t_f) H1.

    H0 = -Gamma sum_i sigma_i^x is the transverse driver; the target
    H1 = -Ncal (sum_i sigma_i^z / Ncal)^p is diagonal with energy
    -Ncal (m(b)/Ncal)^p, so the all-ones string sits at -Ncal.  The bath
    couples through V = sum_i sigma_i^z.
    """
    if not 1 <= Ncal <= MAX_QUBITS:
        raise ResourceLimitError(
            f"Ncal = {Ncal} outside supported range 1..{MAX_QUBITS}")
    if p < 1:
        raise ConfigError("p must be >= 1", section="model", key="p")
    if not t_f > 0:
        raise ConfigError("t_f must be positive", section="model", key="t_f")
    dim = 1 << Ncal
    m = magnetization_values(Ncal)
    h1_diag = -Ncal * (m / Ncal) ** p
    driver_terms = [PauliTerm(-Gamma, ((i, "X"),)) for i in range(Ncal)]
    h0 = PauliSumOperator(Ncal, driver_terms)
    h1 = DiagonalOperator(h1_diag)
    v = DiagonalOperator(m)

    def ham_at(tau):
        r = tau / t_f
        return ScaledSumOperator([(1.0 - r, h0), (r, h1)])

    return SystemModel(dim=dim, V=v, time_dependent=True, _ham_at=ham_at,
                       t_f=t_f)


@dataclasses.dataclass(eq=False)
class PureState:
    """A normalized state vector."""

    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)
        norm = np.linalg.norm(self.vector)
        if abs(norm - 1.0) > 1e-6:
            raise ConfigError(f"state vector norm is {norm:.6f}, expected 1",
                              section="initial")

    def components(self):
        return [(1.0, self.vector)]

    def density(self):
        return np.outer(self.vector, self.vector.conj())


@dataclasses.dataclass(eq=False)
class LocalizedWithTransform:
    """rho_S(0) = C |k><k| C^dagger, driven by the single vector C|k>.

    ``C`` may be dense or scipy-sparse; only its k-th column is ever
    propagated, which is the whole point of the construction.
    """

    k: int
    C: object

    def initial_vector(self) -> np.ndarray:
        if sparse.issparse(self.C):
            col = np.asarray(self.C[:, self.k].todense()).ravel()
        else:
            col = np.asarray(self.C)[:, self.k]
        return np.asarray(col, dtype=complex)

    def components(self):
        return [(1.0, self.initial_vector())]

    def density(self):
        v = self.initial_vector()
        return np.outer(v, v.conj())


@dataclasses.dataclass(eq=False)
class MixedState:
    """A convex mixture sum_i w_i |v_i><v_i| of pure components."""

    parts: List[Tuple[float, np.ndarray]]

    def __post_init__(self):
        total = sum(w for w, _ in self.parts)
        if abs(total - 1.0) > 1e-10:
            raise ConfigError(f"mixture weights sum to {total}, expected 1",
                              section="initial")
        self.parts = [(float(w), np.asarray(v, dtype=complex))
                      for w, v in self.parts]

    def components(self):
        return list(self.parts)

    def density(self):
        return sum(w * np.outer(v, v.conj()) for w, v in self.parts)


InitialState = Union[PureState, LocalizedWithTransform, MixedState]


def uniform_superposition_transform(Ncal: int) -> LocalizedWithTransform:
    """The transform whose k = 0 column is the uniform superposition.

    <i|C|j> = delta_{j,0} / 2^{Ncal/2}, so C|0><0|C^dagger has every matrix
    element equal to 1/2^Ncal.  Stored sparse, so the formal dim x dim
    object holds only its one column.
    """
    if Ncal < 1:
        raise ConfigError("Ncal must be >= 1", section="model", key="Ncal")
    dim = 1 << Ncal
    C = sparse.csc_matrix(
        (np.full(dim, 1.0 / math.sqrt(dim), dtype=complex),
         (np.arange(dim), np.zeros(dim, dtype=int))), shape=(dim, dim))
    return LocalizedWithTransform(k=0, C=C)


def thermal_state(model: SystemModel, beta_hbar: float) -> MixedState:
    """Gibbs mixture of the (time-independent) system eigenstates."""
    if model.time_dependent:
        raise ConfigError("thermal_state needs a time-independent model",
                          section="initial")
    energies, states = np.linalg.eigh(model.hamiltonian_at(0.0).to_dense())
    weights = np.exp(-beta_hbar * (energies - energies.min()))
    weights /= weights.sum()
    return MixedState([(w, states[:, j]) for j, w in enumerate(weights)])
