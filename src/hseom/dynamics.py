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
J_k(0) = delta_{k0}, so only k = 0 lowers.  All hierarchy-space
mixing is precomputed into two sparse matrices (exchange E, coupling B),
and with the system operators into one generator on the flattened stack
(see :class:`ContourEngine`), so a derivative is one sparse product.  A
schedule keeps its Hamiltonian on the system axis, so its derivative takes
two: the generator's, and the dim x dim H(tau) applied to every hierarchy
row at once.

There is one stepping routine, at a fixed dt on absolute grid steps
s = n dt: the degree-8 Taylor polynomial p of the exponential, in Horner
form,

    p(X) y = y + X (y + (X/2) (y + (X/3) (... (y + (X/8) y)))),

eight products of a generator a factor (the truncated Taylor method of
Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), at a fixed degree
and step, so every output is deterministic).  Its stability region holds
the left half-disk of radius 3.39: the imaginary segment |y| <= 3.395 and
the half-circle.  The degree must be a multiple of 4: degrees 6 and 10 are
stable on the imaginary axis only to 0.09 and 0.43, and the generators
here have spectra on that axis; 12 and 16 reach no farther (3.38 and
3.32), so 8 takes the fewest products.  A time-independent G steps with
one factor, y <- p(hG) y, h = +-dt.  A schedule steps with two, the
fourth-order commutator-free Magnus step of Blanes & Moan (Appl. Numer.
Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput. Phys. 230, 5930
(2011)),

    y <- p((h/2) G(tau(s + 5dt/6))) p((h/2) G(tau(s + dt/6))) y,

whose weights (3 -+ 2 sqrt 3)/12 at the two Gauss nodes collapse to these
two stage points because G is linear in tau.  Its error falls as dt^4,
and each factor costs two products a degree, with H(tau) assembled once a
factor.
:meth:`ContourEngine.integrate_span` only repeats the step, so a sweep
may be cut into consecutive spans anywhere without changing a bit of the
result, and callers insert operators or read states between spans.
:meth:`ContourEngine.run` walks the contour literally in three spans (to
the turning point, back to the second insertion, back to 2t); it is the
definitional reference.

Observables do not run the backward branch at all.  Every contour value is
<e0 x v | U_back A U_fwd (e0 x v)> = a^T A y, with y = U_fwd (e0 x v) and
a = U_back^T conj(e0 x v), and the discrete transpose of the step on a
linear equation is the same step of the transposed generator.  Each
factor is a polynomial with real coefficients, so p(X)^T = p(X^T); the
transpose of a schedule's step takes its two factors in reverse order, and
reversing an interval maps its stage points s + dt/6 and s + 5dt/6 onto
each other, so the transpose of a step backward in time is the transposed
generator's step forward over the same interval.  So a is one sweep of
:meth:`ContourEngine.transpose` from conj(e0 x v) at s = 0 with the lower
sign and tau(s) = s, and its state after n steps serves every turning
point at step n.  It is the conjugate of the adjoint state
U_back^dagger (e0 x v) exactly, since h and p's coefficients are real.
The transpose stores nothing of its own: the transpose of a CSR matrix is
a CSC view of the same three arrays, and a CSC product sums each output
entry in the order a CSR product of the transposed matrix sums its row,
so its sweep is bit for bit the sweep of a stored G^T.  The cost is one
forward and one transpose sweep per initial-state component, O(horizon)
whatever the number of record times.  The observables run the two sweeps
concurrently on two threads, which ``integrate_span`` allows: it writes
nothing but its own copy of the state.  A step is sparse products and
elementwise numpy, and the observables read each record time with one
``np.einsum``, so no BLAS runs in a sweep, nor in the set-up before it
(see :mod:`hseom.bath`).  The two threads never wake OpenBLAS's own, which
would busy-wait after a call and take a core from the sweeps, and no
result depends on the BLAS thread count.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .bath import BathExpansion
from .errors import ConfigError, NumericalError
from .hierarchy import ABSENT, HierarchySpace
from .models import Operator, SystemModel, _pruned_csr

__all__ = ["build_coupling_matrices", "ContourEngine", "TAYLOR_DEGREE"]

_GRID_TOL = 1e-9
# degree of every Taylor factor of the step: a multiple of 4, the only
# degrees stable on the imaginary axis (module docstring)
TAYLOR_DEGREE = 8


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
    lowering along k = 0 with weight n_0 (phi_k(0) = delta_{k0}), and is
    applied inside the coupling operator V.  Both are num_awf x num_awf and
    independent of time and branch.
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
        if k == 0:
            low = space.lower_table[0]
            src = np.nonzero(low != ABSENT)[0]
            if src.size:
                rows.append(src)
                cols.append(low[src])
                vals.append(n[src, 0].astype(complex))
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


def _on_one_pattern(start, end) -> Tuple[sparse.csr_matrix, ...]:
    """The two matrices, pruned, as CSR on the union of their patterns.

    Each stores a zero where only the other has an entry; both share one
    ``indices`` and one ``indptr`` array, so a weighted sum of them is an
    axpy on their ``data``.
    """
    parts = [_pruned_csr(start), _pruned_csr(end)]
    # bit j of an entry of the union marks an entry of parts[j]; all three
    # are sorted, so a part's entries fill its marked places in order
    union = sum(sparse.csr_matrix((np.full(part.nnz, float(1 << j)),
                                   part.indices, part.indptr),
                                  shape=part.shape)
                for j, part in enumerate(parts))
    union.sort_indices()
    marks = union.data.astype(np.int64)
    out = []
    for j, part in enumerate(parts):
        data = np.zeros(union.nnz, dtype=complex)
        data[(marks & (1 << j)) != 0] = part.data
        out.append(sparse.csr_matrix((data, union.indices, union.indptr),
                                     shape=union.shape))
    return tuple(out)


def _abs_sums(A: sparse.csr_matrix, axis: int) -> np.ndarray:
    """The absolute column (axis 0) or row (axis 1) sums of a CSR matrix."""
    index = A.indices if axis == 0 else np.repeat(
        np.arange(A.shape[0]), np.diff(A.indptr))
    return np.bincount(index, weights=np.abs(A.data),
                       minlength=A.shape[1 - axis])


def _norm_bound(E: sparse.csr_matrix, B: sparse.csr_matrix,
                model: SystemModel, axis: int) -> float:
    """A bound on ||G(tau)||_1 (axis 0) or ||G(tau)||_inf (axis 1) over the
    whole schedule, read off E, B, V and H (see :class:`ContourEngine`)."""
    lift = _abs_sums(E, axis)[:, None] + np.outer(
        _abs_sums(B, axis), _abs_sums(model.V_csr, axis))
    lift += np.maximum(*(_abs_sums(H, axis) for H in model.ramp))
    return float(lift.max())


class ContourEngine:
    """Precomputed machinery for repeated contour runs of one setup.

    The right-hand side is one sparse generator on the flattened stack,
    built once for every model, G_c as CSR with no stored zeros:

        G(tau) = G_c - i kron(I, H(tau)),
        G_c = kron(E, I) - i kron(B, V),
        H(tau) = (1 - tau/t_f) H(0) + (tau/t_f) H(t_f),

    which is exact because :class:`SystemModel` only admits schedules that
    ramp linearly from H(0) to H(t_f).  A time-independent model folds
    -i kron(I, H) into G_c, so its derivative is a single sparse product.
    A schedule keeps -i H(0) and -i H(t_f) as dim x dim CSR on one
    pattern, the union of theirs, never as num_awf copies: each Taylor
    factor assembles -i H(tau) once, one axpy on their data, and each
    derivative is G_c y plus that H(tau) applied to the system axis of
    the [num_awf, dim] view of y, two sparse products.

    ``norm_bound`` is the smaller of two bounds over the whole schedule,
    one on ||G(tau)||_1 and one on ||G(tau)||_inf.  Both are induced
    norms, so either bounds the spectral radius of G(tau), and of its
    transpose, whose 1-norm is G's inf-norm.  Column (m, b) of |G| sums to
    at most |E|_m + |B|_m |V|_b + |H|_b, with |A|_j the j-th absolute
    column sum of A, and row (m, b) to at most the same expression in
    absolute row sums; H is taken at both ends of the ramp, which bound
    the rest because a norm is convex.  Each side is read off E, B, V and
    H, never off the generator itself.  The hierarchy's |G| is far from
    symmetric: the row side is the smaller on the fixed presets (24.7
    against 40.5 on respond-circular), the column side on the anneals.
    The bound is on eigenvalues only: the larger norm may exceed it.
    """

    def __init__(self, space: HierarchySpace, expansion: BathExpansion,
                 model: SystemModel):
        self.space = space
        self.expansion = expansion
        self.model = model
        self.num_awf = space.num_indices
        self.dim = model.dim
        E, B = build_coupling_matrices(space, expansion)
        self.norm_bound = min(_norm_bound(E, B, model, axis)
                              for axis in (0, 1))
        Id = sparse.identity(self.dim, format="csr", dtype=complex)
        # CSR, not the default BSR, which would store each block's zeros
        G = sparse.kron(E, Id, format="csr") \
            - 1j * sparse.kron(B, model.V_csr, format="csr")
        start, end = model.ramp
        if model.time_dependent:
            self._G = _pruned_csr(G)
            self._ramp = _on_one_pattern(-1j * start, -1j * end)
        else:
            self._G = _pruned_csr(G + self._on_every_row(-1j * start))
            self._ramp = None

    def _on_every_row(self, H: sparse.csr_matrix) -> sparse.csr_matrix:
        """kron(I, H) over the hierarchy rows, assembled as CSR directly.

        ``sparse.kron(I, H, format="csr")`` builds the same matrix bit for
        bit, but through COO and a sort: 0.32 against 0.07 ms on
        respond-circular's 1,771 hierarchy rows and 0.46 against 0.16 ms
        on dephasing's 6,188 (median of 50 calls on a 2-core Xeon), which
        would add 3% to respond-circular's 10 ms set-up.  H must be
        sorted; so is the result, which stores zeros only where H does.
        Its index arrays are int32 when they fit, as scipy would make
        them, so the constructor need not convert them.
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
    def flat_generator(self) -> sparse.spmatrix:
        """G(0) as one sparse matrix; all of G for a time-independent
        model, which a transpose holds as CSC.  A schedule's is assembled
        as CSR on each call."""
        if self._ramp is None:
            return self._G
        return _pruned_csr(self._G + self._on_every_row(
            self._ramp[0].tocsr()))

    @property
    def generator_parts(self) -> Tuple[sparse.spmatrix, ...]:
        """The sparse parts the engine stores: (G_c,), or G_c with the
        dim x dim pair (-iH(0), -iH(t_f)); a transpose's are CSC views of
        the same arrays."""
        return (self._G,) + (self._ramp or ())

    @property
    def step_factors(self) -> int:
        """Taylor factors of one step: 1, or for a schedule 2, each of
        exponent (h/2) G(tau)."""
        return 1 if self._ramp is None else 2

    @property
    def step_degree(self) -> int:
        """The degree of every Taylor factor: TAYLOR_DEGREE."""
        return TAYLOR_DEGREE

    @property
    def step_products(self) -> int:
        """Sparse products of one column-step, per degree per factor: G_c's,
        and a schedule's H(tau) on the system axis."""
        per_degree = 1 if self._ramp is None else 2
        return self.step_factors * TAYLOR_DEGREE * per_degree

    def transpose(self) -> "ContourEngine":
        """An engine for the transposed generator G(tau)^T.

        Its parts are CSC views of this engine's arrays, so it allocates
        nothing.  The schedule's weights are real, so G(tau)^T keeps the
        same form.  One ``integrate_span`` of the transpose from step 0
        with ``sign=-1.0, tau_of=lambda s: s`` gives, at step n,
        U_back(t_n -> 0)^T applied to the start vector, exactly in the
        discrete sense, scheduled Hamiltonians included (module
        docstring).  The transpose shares the space, expansion and model,
        and its own transpose is this engine again.
        """
        twin = copy.copy(self)
        twin._G = self._G.T
        if self._ramp is not None:
            twin._ramp = tuple(part.T for part in self._ramp)
        return twin

    # -- derivative -------------------------------------------------------

    def _ramp_at(self, tau: float) -> Optional[sparse.spmatrix]:
        """-i H(tau) = (1 - r)(-i H(0)) + r (-i H(t_f)), r = tau / t_f, as
        dim x dim CSR (CSC on a transpose) on the pair's one pattern; None
        for a fixed model.

        The data are formed in place as H(0) + r (H(t_f) - H(0)), so no
        second array of their size is made.
        """
        if self._ramp is None:
            return None
        start, end = self._ramp
        data = end.data - start.data
        data *= tau / self.model.t_f
        data += start.data
        return type(start)((data, start.indices, start.indptr),
                           shape=start.shape)

    def _deriv_flat(self, y: np.ndarray, tau: float,
                    scale: float) -> np.ndarray:
        """scale * G(tau) y for a flat state or a block of flat columns.

        ``scale`` is the branch sign, times h / j in a Taylor step.
        """
        return self._deriv(y, self._ramp_at(tau), scale)

    def _deriv(self, y: np.ndarray, ham: Optional[sparse.spmatrix],
               scale: float) -> np.ndarray:
        """scale * (G_c y + ham on the system axis of y), ham = -i H(tau)
        from :meth:`_ramp_at`, or None for a fixed model.

        ham acts on a [dim, num_awf * columns] copy of the state, one
        product over every hierarchy row and column at once, and the
        product is copied back into the copy's buffer in the state's
        order.  So that buffer and the product are the only arrays alive
        beside y before G_c's product, and the buffer alone after it.
        """
        if ham is not None:
            rows = y.reshape(self.num_awf, self.dim, -1)
            # a new complex array, never a view of y
            moved = np.array(rows.transpose(1, 0, 2), dtype=complex,
                             order="C")
            product = ham @ moved.reshape(self.dim, -1)
            moved.reshape(rows.shape)[...] = product.reshape(
                moved.shape).transpose(1, 0, 2)
            del product
        out = self._G @ y
        if ham is not None:
            out += moved.reshape(out.shape)
        out *= scale
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

    def _taylor(self, y: np.ndarray, tau: float, h: float) -> None:
        """y <- p(h G(tau)) y in place, p the degree-8 Taylor polynomial.

        Horner's rule from the innermost factor, so y, the running factor
        and one product (for a schedule, with its H(tau) term) are all it
        holds.  A schedule's H(tau) is assembled once for all eight
        products.
        """
        ham = self._ramp_at(tau)
        acc = y
        for j in range(TAYLOR_DEGREE, 0, -1):
            acc = self._deriv(acc, ham, h / j)
            if j > 1:
                acc += y
        y += acc

    def _step(self, y: np.ndarray, s: float, dt: float, sign: float,
              tau_of) -> None:
        """Advance y in place by one step from s, h = sign * dt: one Taylor
        factor p(hG), or a schedule's two at s + dt/6 and s + 5dt/6."""
        h = sign * dt
        if self._ramp is None:
            self._taylor(y, 0.0, h)
            return
        self._taylor(y, tau_of(s + dt / 6.0), 0.5 * h)
        self._taylor(y, tau_of(s + 5.0 * dt / 6.0), 0.5 * h)

    def integrate_span(self, y: np.ndarray, step0: int, n_steps: int,
                       dt: float, sign: float, tau_of=None):
        """n_steps steps (:meth:`_step`) from absolute grid step step0.

        ``tau_of`` maps the contour parameter s = step * dt to the physical
        clock for scheduled Hamiltonians; a schedule refuses None, and a
        time-independent model ignores it.  Every step depends only on the
        state and its absolute step, so one span of n steps equals any
        split of it into consecutive spans, bit for bit.  Every state, the
        first included, is checked for finiteness.  Returns (y, max |entry|
        seen); the input is not modified, and nothing else the engine
        holds is written, so two threads may run spans of one engine, or of
        an engine and its transpose, at once.
        """
        if self._ramp is not None and tau_of is None:
            raise ConfigError("a scheduled model needs tau_of, the physical "
                              "clock of each contour time")
        y = y.astype(complex, copy=True)
        max_abs = self._check_finite(y, step0 * dt)
        for step in range(step0, step0 + n_steps):
            self._step(y, step * dt, dt, sign, tau_of)
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
        observables use :meth:`transpose` sweeps instead; nothing in the
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
            self._step(Xa, step * dt, dt, -1.0, None)
            step += 1
        return (out if bras is not None else finals), max_abs

    def run(self, psi0: np.ndarray, t: float, dt: float, *,
            A: Optional[Operator] = None, B: Optional[Operator] = None,
            t_prime: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """The contour 0 -> t -> 2t from e0 x psi0, walked literally.

        Three spans: forward along C1 to the turning point s = t, where A
        acts on every row; back along C2 to s = 2t - t', where B acts; back
        to s = 2t.  None means the identity.  This is the definitional
        reference the transpose-sweep observables are checked against.
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

