"""Independent brute-force references the engine is validated against.

Nothing here shares algorithmic code with the production path: the global
generator is assembled index-by-index from the definitional coupling rules
(its own position map, eta entries written out literally, initial basis
values from the library Bessel function), closed-system propagation goes
through eigendecomposition or a generic ODE solver, and the dephasing
factor comes from double quadrature of the exact bath correlation.  The
p-spin anneal is written out on the full 2^Ncal-state register, against
production's permutation-symmetric states.  They ship in the library,
not the test tree, so the `validate` subcommand can run them in the field.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .bath import BathSpec, alpha_quadrature
from .errors import ResourceLimitError
from .hierarchy import HierarchySpace
from .models import (DiagonalOperator, PauliSumOperator, PauliTerm,
                     ScaledSumOperator, SystemModel)

__all__ = [
    "closed_system_propagate",
    "closed_schedule_propagate",
    "assemble_generator",
    "dephasing_exact",
    "magnetization_values",
    "pspin_register",
]

# largest register pspin_register builds: 4,096 states
REGISTER_MAX_QUBITS = 12


def closed_system_propagate(model: SystemModel, psi0: np.ndarray,
                            t: float) -> np.ndarray:
    """Exact e^{-i H t} psi0 via eigendecomposition (time-independent, small)."""
    if model.time_dependent:
        raise ValueError("closed_system_propagate needs a fixed Hamiltonian")
    if model.dim > 64:
        raise ResourceLimitError("closed-system oracle is limited to dim 64")
    ham = model.hamiltonian_at(0.0).to_dense()
    if np.abs(ham - ham.conj().T).max() > 1e-12:
        raise ValueError("Hamiltonian is not Hermitian")
    energies, states = np.linalg.eigh(ham)
    return states @ (np.exp(-1j * energies * t) * (states.conj().T @ psi0))


def closed_schedule_propagate(model: SystemModel, psi0: np.ndarray,
                              t: float, *, rtol: float = 1e-10,
                              atol: float = 1e-12) -> np.ndarray:
    """Schroedinger evolution under a scheduled Hamiltonian, by adaptive ODE.

    Complex state handled directly; DOP853 keeps the error far below the
    tolerances the tests use this oracle at.
    """
    from scipy import integrate  # lazy: 0.15 s of import that no run needs

    if model.dim > 64:
        raise ResourceLimitError("schedule oracle is limited to dim 64")

    def deriv(tau, psi):
        return -1j * (model.hamiltonian_at(tau).to_dense() @ psi)

    sol = integrate.solve_ivp(deriv, (0.0, t), np.asarray(psi0, dtype=complex),
                              method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"ODE oracle failed: {sol.message}")
    return sol.y[:, -1]


def assemble_generator(space: HierarchySpace, expansion, model: SystemModel,
                       tau: float, sign: float) -> sparse.csr_matrix:
    """Build the global sparse generator entry-by-entry from first principles.

    Reads only the plain coefficient data (c, Omega) off the expansion;
    every coupling rule is restated here: the eta entries are written out
    literally, the lowering weights use J_k(0) from the library Bessel
    routine, and neighbor lookups go through a locally built hash map.
    Deliberately no reuse of the production coupling matrices.  ``sign``
    is +1 on the forward branch C1 and -1 on the backward branch C2.
    """
    from scipy import special  # lazy: the run path loads no scipy.special

    c = np.asarray(expansion.c)
    Omega = float(expansion.Omega)
    K = space.K
    dim = model.dim
    M = space.num_indices
    if M * dim > 4096:
        raise ResourceLimitError(
            f"oracle generator limited to 4096 flattened entries, got {M * dim}")
    ham = model.hamiltonian_at(tau).to_dense()
    V = model.V.to_dense()
    eye = np.eye(dim, dtype=complex)
    j_at_zero = special.jv(np.arange(K), 0.0)

    position = {tuple(int(v) for v in row): i
                for i, row in enumerate(space.indices)}

    def eta_entry(k, kp):
        if k == 0:
            return -Omega if kp == 1 else 0.0
        if kp == k - 1:
            return Omega / 2.0
        if kp == k + 1 and kp <= K - 1:
            return -Omega / 2.0
        return 0.0

    G = sparse.lil_matrix((M * dim, M * dim), dtype=complex)
    for vec, i in position.items():
        block = slice(i * dim, (i + 1) * dim)
        G[block, block] += sign * (-1j) * ham
        for k in range(K):
            moved = list(vec)
            moved[k] += 1
            j = position.get(tuple(moved))
            if j is not None:
                G[block, j * dim:(j + 1) * dim] += sign * (-1j) * c[k] * V
            if vec[k] > 0:
                moved = list(vec)
                moved[k] -= 1
                j = position[tuple(moved)]
                if j_at_zero[k] != 0.0:
                    G[block, j * dim:(j + 1) * dim] += (
                        sign * (-1j) * vec[k] * j_at_zero[k] * V)
                for kp in range(K):
                    weight = eta_entry(k, kp)
                    if weight == 0.0:
                        continue
                    moved = list(vec)
                    moved[k] -= 1
                    moved[kp] += 1
                    j2 = position.get(tuple(moved))
                    if j2 is not None:
                        G[block, j2 * dim:(j2 + 1) * dim] += (
                            sign * weight * vec[k] * eye)
    return G.tocsr()


def dephasing_exact(spec: BathSpec, coupling_scale: float,
                    t: float) -> complex:
    """Exact bath-induced coherence factor for a commuting coupling.

    For H diagonal and V = v sigma_z the populations never move and the
    off-diagonal element factorizes into the free system phase (applied by
    the caller) times

        exp[ -4 v^2 int_0^t d tau (t - tau) Re alpha(tau) ],

    obtained by expanding the forward/backward influence phases of the two
    frozen paths; the imaginary-part contributions cancel in this element.
    The integral is evaluated by adaptive quadrature on top of the
    quadrature bath correlation, so the whole chain is expansion-free.
    """
    from scipy import integrate  # lazy: 0.15 s of import that no run needs

    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0 or coupling_scale == 0.0:
        return 1.0 + 0.0j

    def integrand(u):
        return (t - u) * alpha_quadrature(spec, u).real

    weight, _ = integrate.quad(integrand, 0.0, t, limit=200)
    return complex(np.exp(-4.0 * coupling_scale ** 2 * weight))


def magnetization_values(n_qubits: int) -> np.ndarray:
    """m(b) = (number of 1 bits) - (number of 0 bits) per basis label b."""
    labels = np.arange(1 << n_qubits)
    ones = np.zeros(labels.shape, dtype=np.int64)
    for i in range(n_qubits):
        ones += (labels >> i) & 1
    return 2.0 * ones - n_qubits


def pspin_register(Ncal: int, Gamma: float, p: int,
                   t_f: float) -> SystemModel:
    """The p-spin anneal of ``models.pspin_annealing`` on all 2^Ncal
    register states, the reference its symmetric reduction is checked
    against.

    H0 = -Gamma sum_i sigma_i^x as a sum of single-site Pauli terms, the
    target -Ncal (m(b)/Ncal)^p and the coupling m(b) diagonal on the
    labels b (:func:`magnetization_values`), so the all-ones string sits
    at -Ncal.  The uniform start is the flat vector 2^(-Ncal/2), and the
    first excited level's lowest-index state, a single flip, is
    ``annealing_populations``' representative.  Refused above
    ``REGISTER_MAX_QUBITS``.
    """
    if not 1 <= Ncal <= REGISTER_MAX_QUBITS:
        raise ResourceLimitError(f"register oracle takes Ncal in "
                                 f"1..{REGISTER_MAX_QUBITS}, got {Ncal}")
    m = magnetization_values(Ncal)
    h0 = PauliSumOperator(Ncal, [PauliTerm(-Gamma, ((i, "X"),))
                                 for i in range(Ncal)])
    h1 = DiagonalOperator(-Ncal * (m / Ncal) ** p)

    def ham_at(tau):
        r = tau / t_f
        return ScaledSumOperator([(1.0 - r, h0), (r, h1)])

    return SystemModel(dim=1 << Ncal, V=DiagonalOperator(m),
                       time_dependent=True, _ham_at=ham_at, t_f=t_f)
