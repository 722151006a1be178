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
(see :class:`ContourEngine`), so a derivative is one sparse product.
Every matrix is scipy CSR, assembled by scipy's own ``kron`` and sums.  A
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
whatever the number of record times.  On a generator large enough for
a product to outlast a hand-off of the GIL the observables run the two
sweeps concurrently on two threads, which ``integrate_span`` allows: it
writes nothing but its own copy of the state.  On a smaller one they run
the transpose's span after the forward's on the calling thread, with the
same bits (``observables._OVERLAP_ENTRIES``).  A step is sparse products
and elementwise numpy, and the observables read each record time with
one ``np.einsum``, so no BLAS runs in a sweep, nor in the set-up before
it (see :mod:`hseom.bath`).  The sweeps never wake OpenBLAS's own
threads, which would busy-wait after a call and take a core from them,
and no result depends on the BLAS thread count.
"""

from __future__ import annotations

import copy
import math
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from .bath import BathExpansion
from .errors import ConfigError, NumericalError
from .hierarchy import ABSENT, HierarchySpace
from .models import Operator, SystemModel, _pruned_csr

__all__ = ["build_coupling_matrices", "ContourEngine", "TAYLOR_DEGREE",
           "TAYLOR_STEP_NORM"]

_GRID_TOL = 1e-9
# the largest grid step a time may map to: beyond 2**53, s = n dt no longer
# tells neighbouring steps apart, and no run of that many steps would end
_MAX_STEP = 2 ** 53
# degree of every Taylor factor of the step: a multiple of 4, the only
# degrees stable on the imaginary axis (module docstring)
TAYLOR_DEGREE = 8
# the default step keeps the exponent of every Taylor factor, h ||G|| with
# ||G|| the smaller of the 1-norm and inf-norm bounds, at or below this:
# the largest multiple of 0.05 inside the left half-disk of radius 3.39
# where the degree-8 polynomial is stable (module docstring)
TAYLOR_STEP_NORM = 3.35


def _step_of(s: float, dt: float, scale: float, what: str) -> int:
    """The grid step of contour time s; refuses s < 0, dt <= 0, off-grid s
    and a step past ``_MAX_STEP``."""
    if not dt > 0:
        raise ConfigError(f"dt = {dt} must be positive", section="integrator",
                          key="dt")
    if s < 0:
        raise ConfigError(f"{what} at s = {s} precedes the start of the "
                          f"contour", section="plan")
    n = float(s) / float(dt)  # Python floats: inf, not a numpy warning
    if not n <= _MAX_STEP:
        raise ConfigError(f"{what} at s = {s} is {n:.3g} steps of "
                          f"dt = {dt}, more than 2**53", section="plan")
    step = int(round(n))
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
    start, end = _pruned_csr(start), _pruned_csr(end)
    # a sum of absolute values cancels nowhere, so it stores every entry
    # of either part, even where start = -end; scipy keeps its rows sorted
    union = abs(start) + abs(end)
    rows = np.repeat(np.arange(union.shape[0]), np.diff(union.indptr))
    return tuple(sparse.csr_matrix((np.asarray(part[rows, union.indices])
                                    .ravel(), union.indices, union.indptr),
                                   shape=union.shape) for part in (start, end))


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
    ramp linearly from H(0) to H(t_f).  Each kron is ``sparse.kron`` with
    CSR output.  A time-independent model folds -i kron(I, H) into G_c, so
    its derivative is a single sparse product.  A schedule keeps -i H(0)
    and -i H(t_f) as dim x dim CSR on one pattern, the union of theirs,
    which the sum of their absolute values stores, never as num_awf
    copies: each Taylor factor assembles -i H(tau) once, one axpy on their
    data, and each derivative is G_c y plus that H(tau) applied to the
    system axis of the [num_awf, dim] view of y, two sparse products.

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
    The bound is on eigenvalues only: the larger norm may exceed it.  A
    bound that overflows the float range, from parameters whose every
    entry is finite, is refused with a :class:`ConfigError`.
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
        if not math.isfinite(self.norm_bound):
            raise ConfigError(f"the generator's norm bound is "
                              f"{self.norm_bound}: the bath and model "
                              f"parameters overflow the float range")
        Id = sparse.identity(self.dim, format="csr", dtype=complex)
        # CSR, not the default BSR, which would store each block's zeros
        G = sparse.kron(E, Id, format="csr") \
            - 1j * sparse.kron(B, model.V_csr, format="csr")
        start, end = model.ramp
        if model.time_dependent:
            self._G = _pruned_csr(G)
            self._ramp = _on_one_pattern(-1j * start, -1j * end)
        else:
            self._G = _pruned_csr(G + sparse.kron(
                sparse.identity(self.num_awf, format="csr"), -1j * start,
                format="csr"))
            self._ramp = None

    @property
    def flat_generator(self) -> sparse.spmatrix:
        """G(0) as one sparse matrix; all of G for a time-independent
        model, which a transpose holds as CSC.  A schedule's is assembled
        on each call, G_c plus kron(I, -i H(0)), as CSR."""
        if self._ramp is None:
            return self._G
        return _pruned_csr(self._G + sparse.kron(
            sparse.identity(self.num_awf, format="csr"), self._ramp[0],
            format="csr"))

    @property
    def generator_parts(self) -> Tuple[sparse.spmatrix, ...]:
        """The sparse parts the engine stores: (G_c,), or G_c with the
        dim x dim pair (-iH(0), -iH(t_f)); a transpose's are CSC views of
        the same arrays."""
        return (self._G,) + (self._ramp or ())

    @property
    def step_norm(self) -> float:
        """The bound on dt * ||G|| that keeps every Taylor factor's exponent
        within ``TAYLOR_STEP_NORM``: one factor of hG, or a schedule's two
        of (h/2) G(tau)."""
        return TAYLOR_STEP_NORM * (1 if self._ramp is None else 2)

    @property
    def step_degree(self) -> int:
        """The degree of every Taylor factor: TAYLOR_DEGREE."""
        return TAYLOR_DEGREE

    @property
    def step_products(self) -> int:
        """Sparse products of one column-step: G_c's, one a degree, or a
        schedule's two factors of two a degree, G_c's and H(tau)'s on the
        system axis."""
        return TAYLOR_DEGREE * (1 if self._ramp is None else 4)

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
        return self._span(y, step0, n_steps, dt, sign, tau_of)

    def _span(self, y: np.ndarray, step0: int, n_steps: int, dt: float,
              sign: float, tau_of):
        """The steps of :meth:`integrate_span`, with no check of tau_of."""
        y = y.astype(complex, copy=True)
        max_abs = self._check_finite(y, step0 * dt)
        for step in range(step0, step0 + n_steps):
            self._step(y, step * dt, dt, sign, tau_of)
            max_abs = max(max_abs, self._check_finite(y, (step + 1) * dt))
        return y, max_abs

    def backward_batch(self, columns: np.ndarray, steps: np.ndarray,
                       dt: float):
        """Column i of ``columns`` stepped backward (sign -1) from step 0
        for ``steps[i]`` steps; returns (finals, max |entry| seen).

        Only valid for time-independent models, whose steps read no clock.
        The observables use :meth:`transpose` sweeps instead; nothing in the
        package calls this, but ``perfbench/child.py`` wraps it by name.
        """
        if self.model.time_dependent:
            raise NumericalError(
                "backward_batch requires a time-independent model")
        finals = np.empty_like(columns, dtype=complex)
        max_abs = 0.0
        for i, n in enumerate(steps):
            finals[:, i], peak = self._span(columns[:, i], 0, int(n), dt,
                                            -1.0, None)
            max_abs = max(max_abs, peak)
        return finals, max_abs

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

