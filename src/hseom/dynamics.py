"""Signed contour propagation of the hierarchy.

A run walks the contour parameter s from 0 to 2t: the forward branch C1
(s in [0, t], upper signs) followed by the backward branch C2 (s in (t, 2t],
lower signs, which flips the overall sign of the right-hand side).  The
physical clock folds back on C2: tau(s) = s on C1 and 2t - s on C2, so a
scheduled Hamiltonian retraces itself.

For one stack row per hierarchy index n, the derivative along s is

    d phi_n / ds = -+ i H(tau) phi_n
                   +- sum_{k,k'} eta_{k,k'} n_k phi_{n - e_k + e_k'}
                   -+ i V sum_k c_k phi_{n + e_k}
                   -+ i V n_0 phi_{n - e_0}

with indices outside the truncated space contributing zero.  The last term
is the k-sum over n_k phi_k(0) phi_{n - e_k} collapsed by phi_k(0) =
delta_{k0}; the code keeps the general phi_k(0) array.  All hierarchy-space
mixing is precomputed into two sparse matrices (exchange E, coupling B),
and with the system operators into one generator on the flattened stack
(see :class:`ContourEngine`), so a derivative is one sparse product, or
three for a schedule.

There is one stepping routine: a classical RK4 step at a fixed dt on
absolute grid steps s = n dt.  :meth:`ContourEngine.integrate_span` only
repeats it, so a sweep may be cut into consecutive spans anywhere without
changing a bit of the result, and callers insert operators or read
states between spans.  :meth:`ContourEngine.run` walks the contour
literally in three spans (to the turning point, back to the second
insertion, back to 2t); it is the definitional reference.

Observables do not run the backward branch at all.  Every contour value is
<e0 x v | U_back A U_fwd (e0 x v)>, and the discrete adjoint of a classical
RK4 step on a linear equation is again an RK4 step, with the stages'
adjoint operators taken in reverse time order.  So U_back^dagger (e0 x v)
is one sweep of :meth:`ContourEngine.adjoint` from s = 0 with the lower
sign and tau(s) = s, and its state after n steps serves every turning
point at step n.  The cost is one forward and one adjoint sweep per
initial-state component, O(horizon) whatever the number of record times.
The observables run the two sweeps concurrently on two threads, which
``integrate_span`` allows: it writes nothing but its own copy of the
state.  A step is sparse products and elementwise numpy, no BLAS, so the
two threads never wake OpenBLAS's own, which would spin on after a call
and take a core from the sweeps.
"""

from __future__ import annotations

import copy
import enum
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .bath import BathExpansion
from .errors import ConfigError, NumericalError
from .hierarchy import ABSENT, HierarchySpace
from .models import Operator, SystemModel, _pruned_csr

__all__ = ["Branch", "build_coupling_matrices", "ContourEngine"]

_GRID_TOL = 1e-9


class Branch(enum.Enum):
    C1 = "C1"
    C2 = "C2"

    @property
    def sign(self) -> float:
        return 1.0 if self is Branch.C1 else -1.0


def _step_of(s: float, dt: float, scale: float, what: str) -> int:
    """The grid step of contour time s; refuses s < 0, dt <= 0, off-grid s."""
    if not dt > 0:
        raise ConfigError(f"dt = {dt} must be positive", section="integrator",
                          key="dt")
    if s < 0:
        raise ConfigError(f"{what} at s = {s} precedes the start of the "
                          f"contour", section="plan")
    step = int(round(s / dt))
    if abs(step * dt - s) > _GRID_TOL * max(1.0, scale):
        raise ConfigError(f"{what} at s = {s} is off the dt = {dt} grid",
                          section="plan")
    return step


def build_coupling_matrices(space: HierarchySpace,
                            expansion: BathExpansion):
    """The two sparse hierarchy-space matrices of the right-hand side.

    E[i, j] collects eta_{k,k'} n_k over the exchange moves ending at row i
    from row j; B[i, j] collects the raising coefficients c_k plus the
    phi_k(0)-weighted lowering, and is applied inside the coupling operator
    V.  Both are num_awf x num_awf and independent of time and branch.
    """
    if space.K != expansion.K:
        raise ConfigError(f"hierarchy K = {space.K} does not match "
                          f"expansion K = {expansion.K}", section="plan")
    M = space.num_indices
    n = space.indices
    rows, cols, vals = [], [], []
    eta = expansion.eta.tocoo()
    for k, kp, value in zip(eta.row, eta.col, eta.data):
        low = space.lower_table[k]
        src = np.nonzero(low != ABSENT)[0]
        if src.size == 0:
            continue
        dst = space.raise_table[kp, low[src]]
        rows.append(src)
        cols.append(dst)
        vals.append(value * n[src, k].astype(float))
    E = _coo_from_parts(vals, rows, cols, M).astype(complex)

    rows, cols, vals = [], [], []
    for k in range(space.K):
        up = space.raise_table[k]
        src = np.nonzero(up != ABSENT)[0]
        if src.size:
            rows.append(src)
            cols.append(up[src])
            vals.append(np.full(src.size, expansion.c[k]))
        if expansion.phi_at_zero[k] != 0.0:
            low = space.lower_table[k]
            src = np.nonzero(low != ABSENT)[0]
            if src.size:
                rows.append(src)
                cols.append(low[src])
                vals.append(expansion.phi_at_zero[k]
                            * n[src, k].astype(complex))
    B = _coo_from_parts(vals, rows, cols, M)
    E.sort_indices()
    B.sort_indices()
    return E, B


def _coo_from_parts(vals, rows, cols, M) -> sparse.csr_matrix:
    if not vals:  # N_max = 0 leaves no couplings at all
        return sparse.csr_matrix((M, M), dtype=complex)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(M, M)).tocsr()


def _column_sums(A: sparse.csr_matrix) -> np.ndarray:
    """The absolute column sums of a CSR matrix."""
    return np.bincount(A.indices, weights=np.abs(A.data),
                       minlength=A.shape[1])


class ContourEngine:
    """Precomputed machinery for repeated contour runs of one setup.

    The right-hand side is one sparse generator on the flattened stack,
    built once for every model as CSR with no stored zeros:

        G(tau) = G_c + (1 - tau/t_f) G_start + (tau/t_f) G_end,
        G_c = kron(E, I) - i kron(B, V),
        G_start = -i kron(I, H(0)),   G_end = -i kron(I, H(t_f)),

    which is exact because :class:`SystemModel` only admits schedules that
    ramp linearly from H(0) to H(t_f).  A time-independent model folds
    -i kron(I, H) into G_c and has no other parts, so its derivative is a
    single sparse product; a schedule's takes three.

    ``norm_bound`` bounds ||G(tau)||_1 over the whole schedule, and so the
    spectral radius of G(tau) and of its adjoint.  Column (m, b) of |G|
    sums to at most |E|_m + |B|_m |V|_b + |H|_b, with |A|_j the j-th
    absolute column sum of A; H is taken at both ends of the ramp, which
    bound the rest because a norm is convex.  It is read off E, B, V and
    H, never off the generator itself.
    """

    def __init__(self, space: HierarchySpace, expansion: BathExpansion,
                 model: SystemModel):
        self.space = space
        self.expansion = expansion
        self.model = model
        self.num_awf = space.num_indices
        self.dim = model.dim
        E, B = build_coupling_matrices(space, expansion)
        lift = _column_sums(E)[:, None] + np.outer(_column_sums(B),
                                                   _column_sums(model.V_csr))
        lift += np.maximum(*(_column_sums(H) for H in model.ramp))
        self.norm_bound = float(lift.max())
        Id = sparse.identity(self.dim, format="csr", dtype=complex)
        # CSR, not the default BSR, which would store each block's zeros
        G = sparse.kron(E, Id, format="csr") \
            - 1j * sparse.kron(B, model.V_csr, format="csr")
        start, end = model.ramp
        if model.time_dependent:
            self._G = _pruned_csr(G)
            self._ramp = (self._on_every_row(-1j * start),
                          self._on_every_row(-1j * end))
        else:
            self._G = _pruned_csr(G + self._on_every_row(-1j * start))
            self._ramp = None

    def _on_every_row(self, H: sparse.csr_matrix) -> sparse.csr_matrix:
        """kron(I, H) over the hierarchy rows, assembled as CSR directly.

        ``sparse.kron`` goes through COO and a sort, ten times slower on
        a 1024-state register.  H must be pruned and sorted; so is the
        result.  Its index arrays are int32 when they fit, as scipy would
        make them, so the constructor need not convert them.
        """
        size, nnz = self.num_awf * self.dim, self.num_awf * H.nnz
        index = np.int32 if max(size, nnz) < 2 ** 31 else np.int64
        offsets = np.arange(self.num_awf, dtype=index)[:, None]
        indptr = np.append(
            (H.indptr[:-1].astype(index) + index(H.nnz) * offsets).ravel(),
            index(nnz))
        indices = (H.indices.astype(index) + index(self.dim) * offsets).ravel()
        return sparse.csr_matrix((np.tile(H.data, self.num_awf), indices,
                                  indptr), shape=(size, size))

    @property
    def flat_generator(self) -> sparse.csr_matrix:
        """G(0) as one CSR matrix; all of G for a time-independent model."""
        if self._ramp is None:
            return self._G
        return _pruned_csr(self._G + self._ramp[0])

    @property
    def generator_parts(self) -> Tuple[sparse.csr_matrix, ...]:
        """The CSR parts of G: (G_c,), or (G_c, G_start, G_end)."""
        return (self._G,) + (self._ramp or ())

    def adjoint(self) -> "ContourEngine":
        """An engine for the Hermitian-conjugate generator G(tau)^H.

        Each part of G is conjugate-transposed; the schedule's weights are
        real, so G(tau)^H keeps the same form.  One ``integrate_span`` of
        the adjoint from step 0 with ``sign=-1.0, tau_of=lambda s: s``
        gives, at step n, U_back(t_n -> 0)^dagger applied to the start
        vector, exactly in the discrete sense, scheduled Hamiltonians
        included.  The adjoint shares the space, expansion and model; it is
        built on demand, so ``build_components`` does not pay for it.
        """
        twin = copy.copy(self)
        twin._G = _pruned_csr(self._G.conj().T)
        if self._ramp is not None:
            twin._ramp = tuple(_pruned_csr(part.conj().T)
                               for part in self._ramp)
        return twin

    # -- derivative -------------------------------------------------------

    def _deriv_flat(self, y: np.ndarray, tau: float, sign: float) -> np.ndarray:
        """sign * G(tau) y for a flat state or a block of flat columns."""
        out = self._G @ y
        if self._ramp is not None:
            r = tau / self.model.t_f
            out += (1.0 - r) * (self._ramp[0] @ y)
            out += r * (self._ramp[1] @ y)
        out *= sign
        return out

    # -- integration ------------------------------------------------------

    def initial_stack(self, psi0: np.ndarray) -> np.ndarray:
        stack = np.zeros((self.num_awf, self.dim), dtype=complex)
        stack[0] = psi0
        return stack

    def apply_all_rows(self, y: np.ndarray, op: Operator) -> np.ndarray:
        """Apply a system operator to every hierarchy row of a flat state.

        ``y`` is one flat state or a block of flat columns; the operator
        acts on the system axis of every row of every column at once.
        """
        cols = y.reshape(self.num_awf, self.dim, -1).swapaxes(1, 2)
        return op.apply(cols).swapaxes(1, 2).reshape(y.shape)

    def _check_finite(self, y: np.ndarray, s: float) -> float:
        peak = float(np.abs(y).max())
        if not math.isfinite(peak):
            finite = np.abs(y)
            finite = finite[np.isfinite(finite)]
            largest = float(finite.max()) if finite.size else 0.0
            raise NumericalError(
                f"non-finite stack entry at s = {s}; largest finite "
                f"magnitude {largest:.3e}")
        return peak

    def _rk4_step(self, y: np.ndarray, s: float, dt: float, sign: float,
                  tau_of) -> None:
        """Advance y in place by one classical RK4 step from s.

        The stage sum accumulates in k1's buffer as the stages come, in
        the order ((k1 + 2 k2) + 2 k3) + k4, so the four stages are never
        all alive at once.
        """
        if self._ramp is None:
            t1 = t2 = t3 = 0.0
        else:
            t1, t2, t3 = tau_of(s), tau_of(s + 0.5 * dt), tau_of(s + dt)
        acc = k = self._deriv_flat(y, t1, sign)
        k = self._deriv_flat(y + (0.5 * dt) * k, t2, sign)
        acc += 2.0 * k
        k = self._deriv_flat(y + (0.5 * dt) * k, t2, sign)
        acc += 2.0 * k
        acc += self._deriv_flat(y + dt * k, t3, sign)
        acc *= dt / 6.0
        y += acc

    def integrate_span(self, y: np.ndarray, step0: int, n_steps: int,
                       dt: float, sign: float, tau_of=None):
        """RK4 over n_steps from absolute grid step step0.

        ``tau_of`` maps the contour parameter s = step * dt to the physical
        clock for scheduled Hamiltonians; a schedule refuses None, and a
        time-independent model ignores it.  Every step depends only on the
        state and its absolute step, so one span of n steps equals any
        split of it into consecutive spans, bit for bit.  Every state, the
        first included, is checked for finiteness.  Returns (y, max |entry|
        seen); the input is not modified, and nothing else the engine
        holds is written, so two threads may run spans of one engine, or of
        an engine and its adjoint, at once.
        """
        if self._ramp is not None and tau_of is None:
            raise ConfigError("a scheduled model needs tau_of, the physical "
                              "clock of each contour time")
        y = y.astype(complex, copy=True)
        max_abs = self._check_finite(y, step0 * dt)
        for step in range(step0, step0 + n_steps):
            self._rk4_step(y, step * dt, dt, sign, tau_of)
            max_abs = max(max_abs, self._check_finite(y, (step + 1) * dt))
        return y, max_abs

    def backward_batch(self, columns: np.ndarray, steps: np.ndarray,
                       dt: float,
                       events: Sequence[Tuple[int, int, Operator]] = (),
                       bras: Optional[np.ndarray] = None):
        """Many C2 runs on a shared elapsed clock, each with its own horizon.

        Columns must be ordered by ``steps`` non-increasing; finished
        columns are retired from the right so the live block stays
        contiguous.  ``events[(step, col, op)]`` applies op to all rows of
        one column at its elapsed step.  With ``bras`` of shape [R, dim]
        the return value is out[r] = <bras[r] | rwf of column r at its end>;
        otherwise the final columns themselves are returned.

        Only valid for time-independent models (a shared clock would
        otherwise mean different physical times per column).  The
        observables use :meth:`adjoint` sweeps instead; nothing in the
        package calls this, but ``perfbench/child.py`` wraps it by name.
        """
        if self.model.time_dependent:
            raise NumericalError(
                "backward_batch requires a time-independent model")
        R = columns.shape[1]
        steps = np.asarray(steps)
        if np.any(np.diff(steps) > 0):
            raise ValueError("columns must be sorted by steps descending")
        ev: Dict[int, List[Tuple[int, Operator]]] = {}
        for step, col, op in events:
            ev.setdefault(step, []).append((col, op))
        out = np.zeros(R, dtype=complex) if bras is not None else None
        finals = None if bras is not None else np.empty_like(columns)
        X = columns.astype(complex, copy=True)
        active = R
        max_abs = 0.0
        step = 0
        while active > 0:
            if step in ev:
                for col, op in ev[step]:
                    if col < active:
                        X[:, col] = self.apply_all_rows(X[:, col], op)
            while active > 0 and steps[active - 1] == step:
                col = active - 1
                if bras is not None:
                    out[col] = np.vdot(bras[col], X[:self.dim, col])
                else:
                    finals[:, col] = X[:, col]
                active -= 1
            if active == 0:
                break
            Xa = X[:, :active]
            max_abs = max(max_abs, self._check_finite(Xa, step * dt))
            self._rk4_step(Xa, step * dt, dt, -1.0, None)
            step += 1
        return (out if bras is not None else finals), max_abs

    def run(self, psi0: np.ndarray, t: float, dt: float, *,
            A: Optional[Operator] = None, B: Optional[Operator] = None,
            t_prime: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """The contour 0 -> t -> 2t from e0 x psi0, walked literally.

        Three spans: forward along C1 to the turning point s = t, where A
        acts on every row; back along C2 to s = 2t - t', where B acts; back
        to s = 2t.  None means the identity.  This is the definitional
        reference the adjoint-sweep observables are checked against.
        Returns the [num_awf, dim] stacks at the turning point, before A,
        and at s = 2t.  t, t' and 2t - t' must sit on the dt grid, with
        0 <= t' <= t.
        """
        n = _step_of(t, dt, t, "turning point")
        if not 0.0 <= t_prime <= t + _GRID_TOL * max(1.0, t):
            raise ConfigError("t_prime must lie in [0, t]", section="plan",
                              key="t_prime")
        n_b = 2 * n - _step_of(t_prime, dt, t, "t_prime")
        y, _ = self.integrate_span(self.initial_stack(psi0).ravel(), 0, n,
                                   dt, +1.0, tau_of=lambda s: s)
        turn = y.reshape(self.num_awf, self.dim)
        if A is not None:
            y = self.apply_all_rows(y, A)

        def back(s):
            return 2.0 * t - s

        y, _ = self.integrate_span(y, n, n_b - n, dt, -1.0, tau_of=back)
        if B is not None:
            y = self.apply_all_rows(y, B)
        y, _ = self.integrate_span(y, n_b, 2 * n - n_b, dt, -1.0,
                                   tau_of=back)
        return turn, y.reshape(self.num_awf, self.dim)

    def level_norms(self, stack: np.ndarray) -> np.ndarray:
        """Max row magnitude per hierarchy level, an overflow diagnostic."""
        data = stack.reshape(self.num_awf, self.dim)
        out = np.zeros(self.space.N_max + 1)
        for level in range(self.space.N_max + 1):
            block = data[self.space.level_slice(level)]
            if block.size:
                out[level] = float(np.abs(block).max())
        return out

