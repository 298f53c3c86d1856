"""Time evolution: unitary propagation, damped (Lindblad) propagation, and
the reduced amplitude equations of the bus-eliminated model.

Every generator here is constant in time, so each route is exact up to dense
linear algebra, and each propagation job has one routine.  One Hamiltonian
on a uniform grid: evolve_unitary diagonalizes it and takes the phases from
two tables of about sqrt(T) rows each (_phase_product, into a buffer its
caller passes; states are a transposed view of the time-last table).  A
family of one-photon blocks: experiments._released, one stacked eigh.  One
step exp(A): _expm (Pade scaling and squaring in numpy), which the Lindblad
route applies over one grid spacing to each distinct Liouvillian of the
batch, assembled on the entries reachable from the initial support and
written in real coordinates of a Hermitian rho, so that the matrix it
exponentiates is real; the layout of those entries and of the generator's
nonzero pairs on them (_live_layout) and the generator on it
(_real_generator, the sum of the nonzero terms that _real_terms lists for
a stack of drifts) are separate steps, so the Werner sweep, with or
without decay, builds its layout and its generator terms once per process.
The reduced amplitudes are a unitary problem in a rotated frame.  All
routes treat the initial state as the state at grid.t_start.  Trace
(Lindblad) and norm (amplitudes) are conserved exactly by these
generators, so each trajectory is checked for them afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: largest Hilbert dimension d the Lindblad route accepts; a full-rank rho0
#: makes every entry live: _live_layout then finds the generator's nonzero
#: pairs among its d(d+1)/2 rows and d^2 columns through index tables of
#: 4 d^3 (d+1) bytes each (4.3 MB at d = 32), and the real d^2 x d^2 matrix
#: that _expm takes, like each of its work arrays, is 8 d^4 bytes (8.4 MB)
MAX_LINDBLAD_DIM = 32

# degree-13 Pade approximant of exp and the 1-norm up to which it is accurate
# to double precision without scaling (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179 (2005))
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

_CONSERVATION_TOL = 1.0e-8


class PropagationError(RuntimeError):
    """Raised when a finished trajectory violates a conservation invariant
    (trace for the master equation, norm for the reduced amplitudes)."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid over [t_start, t_end] in us."""

    t_start: float
    t_end: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.points}")
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValueError(
                f"grid bounds must be finite, got [{self.t_start}, {self.t_end}]"
            )
        if not self.t_end > self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.points)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Output times and the states sampled at them.

    states has shape (T, d) for state vectors, (T, d, d) for single density
    matrices, or (T, B, d, d) for a batch.
    """

    times: np.ndarray
    states: np.ndarray


def _check_conserved(name: str, values: np.ndarray, initial, times) -> None:
    """Raise PropagationError if values (time on the first axis) drift from
    their initial values by more than the tolerance, relative to their size."""
    drift = np.abs(values - initial)
    worst = float(np.max(drift))
    # written so that a NaN drift fails the check too
    if not worst <= _CONSERVATION_TOL * (1.0 + float(np.max(np.abs(initial)))):
        k = np.unravel_index(np.argmax(drift), drift.shape)[0]
        raise PropagationError(f"{name} drifted by {worst:.3e} at t = {times[k]:.6g} us")


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-13 Pade
    approximant: exp(a) = r(a / 2^s)^(2^s) with the smallest s >= 0 that
    brings the 1-norm of a / 2^s under theta_13.  A result that overflows
    is refused, naming the 1-norm of a."""
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"cannot exponentiate a matrix of 1-norm {norm}")
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
    a = a * 2.0 ** -s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    if not np.all(np.isfinite(r)):
        raise ValueError(f"the exponential of a matrix of 1-norm {norm:.6g} overflows")
    return r


def evolve_unitary(h: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Propagate a state vector under a constant Hamiltonian by
    diagonalization; exact up to the eigensolver.

    Grid point k = q m + r, with m = isqrt(T - 1) + 1, has the phases
    exp(-i lam q m dt) exp(-i lam r dt), so two tables of about sqrt(T)
    rows each replace the T x d table of exponentials, and each state
    component is one (Q x d) @ (d x m) product.  The result is laid out
    with time last; states is its (T, d) transpose, a view that is not
    C-contiguous.
    """
    h = np.asarray(h)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.shape[0],):
        raise ValueError(f"state shape {psi0.shape} does not match dim {h.shape[0]}")
    if not np.all(np.isfinite(h)):
        raise ValueError("Hamiltonian entries must be finite")
    evals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    c0 = vecs.conj().T @ psi0
    points = grid.points
    table = np.empty((len(evals), *_sqrt_split(points)), dtype=complex)
    _phase_product(evals, vecs * c0, grid.span / (points - 1), table)
    states = table.reshape(len(evals), -1)[:, :points].T
    return Trajectory(grid.times, states)


def _sqrt_split(points: int) -> tuple[int, int]:
    """(Q, m) with m = isqrt(T - 1) + 1 and Q = (T - 1) // m + 1, so that
    grid point k = q m + r of T points has q < Q and r < m (Q m >= T)."""
    m = math.isqrt(points - 1) + 1
    return (points - 1) // m + 1, m


def _phase_product(evals: np.ndarray, weights: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """Write sum_l weights[j, l] exp(-i evals[l] (q m + r) dt) into out[j, q, r]
    and return out, of shape (rows, Q, m) from _sqrt_split: each row is one
    (Q x d) @ (d x m) product of the coarse and fine phase tables.  With
    weights = vecs * c0, row j is component j of the state at k = q m + r.
    """
    _, q, m = out.shape
    fine = np.exp(-1j * np.outer(evals, np.arange(m) * dt))
    coarse = np.exp(-1j * np.outer(np.arange(q) * (m * dt), evals))
    return np.matmul(weights[:, None, :] * coarse, fine, out=out)


def evolve_lindblad_batch(
    h: np.ndarray,
    collapse,
    rho0: np.ndarray,
    grid: TimeGrid,
) -> Trajectory:
    """Propagate d rho/dt = -i[h, rho] + sum_k kappa_k D[xi_k] rho for a batch.

    Each entry's Liouvillian acts on row-major vec(rho) as
    kron(D, I) + kron(I, conj(D)) + sum_k kappa_k kron(xi_k, conj(xi_k)) with
    D = -i h - sum_k kappa_k xi_k^dag xi_k / 2.  Only the entries reachable
    from the initial support take part: the nonzero entries of rho0 and
    their mirrors, closed under the union sparsity pattern of the
    generators.  The generators map that set into itself, so the
    restriction is exact and every other entry stays exactly zero (a
    photon-number-conserving h with decay keeps single-photon states in a
    17-entry block of 25 at n = 3).  The generator is assembled on those
    live entries alone: entry ((i, j), (p, q)) is
    D[i, p] delta_jq + conj(D)[j, q] delta_ip + sum_k kappa_k xi_k[i, p]
    conj(xi_k)[j, q], the products the Kronecker form holds there, without
    the d^2 x d^2 array.  Entries with the same h and the same rates share one
    generator: it is exponentiated once per distinct generator over the
    grid spacing, and the stacked coordinates of its entries are stepped
    with one matrix product per grid point.

    The generator maps rho^dag to L(rho)^dag for any D and real rates, so it
    is propagated in real coordinates of a Hermitian rho: x = Re rho_e on
    each live entry e = (i, j) with i <= j and y = Im rho_e on those with
    i < j.  The live set is closed from the support of rho0 made symmetric,
    only the rows of the upper live entries are assembled, and the matrix
    exponentiated is real, of the same size as the live set.  The states
    returned are Herm(e^{Lt} rho0) = e^{Lt} Herm(rho0), Hermitian exactly.
    _live_layout closes the live set and lays out its coordinates and the
    generator's nonzero pairs; _real_generator gathers each distinct
    generator on them.

    Parameters
    ----------
    h : Hamiltonian, shape (d, d) shared or (B, d, d) per batch entry
    collapse : sequence of (rate, op) pairs; rate is a scalar or shape (B,)
        array in 1/us, op is a (d, d) matrix
    rho0 : initial density matrices, shape (B, d, d)
    grid : output times

    Returns a Trajectory with states of shape (T, B, d, d).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 3 or rho0.shape[1] != rho0.shape[2]:
        raise ValueError(f"rho0 must have shape (B, d, d), got {rho0.shape}")
    if not np.all(np.isfinite(rho0)):
        raise ValueError("rho0 entries must be finite")
    nbatch, dim = rho0.shape[0], rho0.shape[1]
    if nbatch == 0:
        raise ValueError("rho0 holds no density matrices: the batch is empty")
    if dim > MAX_LINDBLAD_DIM:
        raise ValueError(
            f"Hilbert dimension {dim} exceeds the Lindblad propagator's limit "
            f"of {MAX_LINDBLAD_DIM} (dense d^2 x d^2 superoperator)"
        )
    h = np.asarray(h, dtype=complex)
    if h.shape == (dim, dim):
        h = np.broadcast_to(h, (nbatch, dim, dim))
    elif h.shape != (nbatch, dim, dim):
        raise ValueError(f"h must have shape ({dim},{dim}) or ({nbatch},{dim},{dim})")
    if not np.all(np.isfinite(h)):
        raise ValueError("h entries must be finite")

    jumps = [(np.asarray(rate, dtype=float), np.asarray(op, dtype=complex))
             for rate, op in collapse]
    for _, op in jumps:
        if op.shape != (dim, dim):
            raise ValueError(f"collapse operator shape {op.shape} does not match dim {dim}")
    ops = np.array([op for _, op in jumps]).reshape(-1, dim, dim)
    if not np.all(np.isfinite(ops)):
        raise ValueError("collapse operator entries must be finite")
    rates = np.array([np.broadcast_to(rate, (nbatch,)) for rate, _ in jumps]).reshape(-1, nbatch)
    if not np.all(np.isfinite(rates)):
        raise ValueError("collapse rates must be finite")
    if np.any(rates < 0):
        raise ValueError("collapse rates must be nonnegative")
    drift = -1j * h - 0.5 * np.einsum("kb,kij->bij", rates, ops.conj().swapaxes(1, 2) @ ops)

    # entries with equal drift and equal rates have the same Liouvillian
    groups: dict[bytes, list[int]] = {}
    for b in range(nbatch):
        groups.setdefault(drift[b].tobytes() + rates[:, b].tobytes(), []).append(b)

    layout = _live_layout(drift, ops, rates, rho0)
    coords0 = layout.coords(rho0)
    dt = grid.span / (grid.points - 1)
    out = np.empty((grid.points, nbatch, dim, dim), dtype=complex)
    for members in groups.values():
        b = members[0]
        step_t = _expm(_real_generator(drift[b], rates[:, b], layout) * dt).T
        # rows are the members' coordinates; row @ step^T = (step @ coords)^T
        block = np.empty((grid.points, len(members), step_t.shape[0]))
        block[0] = coords0[members]
        for k in range(1, grid.points):
            np.matmul(block[k - 1], step_t, out=block[k])
        out[:, members] = layout.density(block)

    trace0 = np.einsum("bii->b", rho0).real
    traces = np.einsum("tbii->tb", out).real
    _check_conserved("trace", traces, trace0, grid.times)
    return Trajectory(grid.times, out)


@dataclass(frozen=True, eq=False)
class _LiveLayout:
    """The live entries of rho and the generator's nonzero pairs on them.

    Live entry (i, j) of rho sits at i * d + j of vec(rho).  The real
    coordinates are x = Re rho on the upper entries (i <= j, flat indices
    upper) and y = Im rho on the strictly upper ones (upper[strict]), whose
    mirrors (j, i) are lower.  The generator's rows are the upper entries
    and its columns every live entry, upper then lower.  The pairs of row
    (i, j) and column (p, q) where a term can be nonzero are listed once,
    as rows and cols: first those with j = q, where D[i, p] enters (its
    flat index in left), then those with i = p, where conj(D[j, q]) enters
    (right), then those where xi_k[i, p] and xi_k[j, q] are both nonzero,
    for the operator k in jump, with the products xi_k[i, p] conj(xi_k)[j,
    q] in jump_values.
    """

    dim: int
    upper: np.ndarray
    strict: np.ndarray
    lower: np.ndarray
    left: np.ndarray
    right: np.ndarray
    jump: np.ndarray
    jump_values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    @property
    def size(self) -> int:
        """N, the number of real coordinates."""
        return self.upper.size + self.strict.size

    def coords(self, rho: np.ndarray) -> np.ndarray:
        """Real coordinates (..., N) of Herm(rho) for rho of shape (..., d, d)."""
        herm = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
        herm = herm.reshape(herm.shape[:-2] + (-1,))
        return np.concatenate((herm.real[..., self.upper],
                               herm.imag[..., self.upper[self.strict]]), axis=-1)

    def density(self, coords: np.ndarray) -> np.ndarray:
        """The Hermitian (..., d, d) matrices with real coordinates (..., N),
        zero off the live entries."""
        n_upper = self.upper.size
        entries = coords[..., :n_upper] + 0j
        entries[..., self.strict] += 1j * coords[..., n_upper:]
        out = np.zeros(coords.shape[:-1] + (self.dim * self.dim,), dtype=complex)
        out[..., self.upper] = entries
        out[..., self.lower] = entries[..., self.strict].conj()
        return out.reshape(coords.shape[:-1] + (self.dim, self.dim))


def _live_layout(drift: np.ndarray, ops: np.ndarray, rates: np.ndarray,
                 rho0: np.ndarray) -> _LiveLayout:
    """The layout of the entries reachable from the support of Herm(rho0)
    (B, d, d) under the drifts (B, d, d) and the collapse operators ops
    (K, d, d) whose rates (K, B) are not all zero; the jump pairs are
    those of every operator."""
    # each term A rho B^dag (D rho, rho D^dag, xi rho xi^dag) fills the
    # pattern A @ live @ B^T, and the union stays symmetric; 0/1 floats make
    # each product one BLAS call
    dim = rho0.shape[-1]
    drift_pattern = np.any(drift != 0, axis=0)[None]
    eye = np.eye(dim, dtype=bool)[None]
    jump_patterns = ops[np.any(rates != 0, axis=1)] != 0
    left = np.concatenate((drift_pattern, eye, jump_patterns)).astype(float)
    right = np.concatenate((eye, drift_pattern, jump_patterns)).astype(float)
    live = np.any(rho0 != 0, axis=0)
    live |= live.T
    while True:
        grown = live | np.any(left @ live.astype(float) @ right.swapaxes(1, 2) != 0, axis=0)
        if np.array_equal(grown, live):
            break
        live = grown

    upper = np.flatnonzero(np.triu(live))
    rows, cols = divmod(upper, dim)
    strict = np.flatnonzero(rows < cols)
    lower = cols[strict] * dim + rows[strict]
    # the flat indices of the operator entries (i, p) and (j, q) that row
    # (i, j) and column (p, q) pick, for every pair of the R x C generator
    col_rows, col_cols = divmod(np.concatenate((upper, lower)), dim)
    ip = rows[:, None] * dim + col_rows
    jq = cols[:, None] * dim + col_cols
    same_col = np.nonzero(cols[:, None] == col_cols)
    same_row = np.nonzero(rows[:, None] == col_rows)
    flat_ops = ops.reshape(len(ops), dim * dim)
    nonzero = flat_ops != 0
    jump, jump_row, jump_col = np.nonzero(nonzero[:, ip] & nonzero[:, jq])
    jump_ip, jump_jq = ip[jump_row, jump_col], jq[jump_row, jump_col]
    return _LiveLayout(
        dim, upper, strict, lower, ip[same_col], jq[same_row], jump,
        jump_values=flat_ops[jump, jump_ip] * flat_ops[jump, jump_jq].conj(),
        rows=np.concatenate((same_col[0], same_row[0], jump_row)),
        cols=np.concatenate((same_col[1], same_row[1], jump_col)),
    )


def _real_generator(drift: np.ndarray, rates: np.ndarray, layout: _LiveLayout) -> np.ndarray:
    """The Liouvillian of one drift D (d, d) and its rates (K,), gathered
    on the layout's live entries and written in its real coordinates: the
    real N x N matrix that steps them (the sum of _real_terms)."""
    _, where, values = _real_terms(drift[None], rates[None], layout)
    return np.bincount(where, values, minlength=layout.size ** 2).reshape(layout.size, -1)


def _real_terms(drift: np.ndarray, rates: np.ndarray,
                layout: _LiveLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero terms of the real generators of a stack of drifts D
    (S, d, d) with their rates (S, K), gathered on the layout's live
    entries: arrays (stack, where, values), each term adding values[t] to
    the flat entry where[t] of the N x N generator of drift stack[t].
    Terms with the same stack index and entry add up."""
    # the complex generator at row (i, j) and column (p, q) sums D[i, p]
    # where j = q, conj(D[j, q]) where i = p and kappa_k xi_k[i, p]
    # conj(xi_k)[j, q], on the layout's pairs where some term can be nonzero
    flat = drift.reshape(len(drift), -1)
    terms = np.concatenate((flat[:, layout.left], flat[:, layout.right].conj(),
                            rates[:, layout.jump] * layout.jump_values), axis=1)
    stack, k = np.nonzero(terms)
    terms = terms[stack, k]
    rows, cols = layout.rows[k], layout.cols[k]
    # rho_f = x_f + i y_f on an upper column f and x_f - i y_f on its
    # mirror: a term g there adds g to x_f's column and i g or -i g to
    # y_f's; row (i, j) is the real part of each, the y row of a strict
    # (i, j) the imaginary part
    n_upper, n_strict, size = layout.upper.size, layout.strict.size, layout.size
    y_index = n_upper + np.arange(n_strict)
    x_col = np.concatenate((np.arange(n_upper), layout.strict))
    y_col = np.full(size, -1)
    y_col[layout.strict] = y_col[n_upper:] = y_index
    y_row = np.full(n_upper, -1)
    y_row[layout.strict] = y_index
    by_col = np.concatenate((terms, np.where(cols < n_upper, 1j, -1j) * terms))
    col = np.tile(np.concatenate((x_col[cols], y_col[cols])), 2)
    row = np.concatenate((np.tile(rows, 2), np.tile(y_row[rows], 2)))
    values = np.concatenate((by_col.real, by_col.imag))
    keep = (row >= 0) & (col >= 0) & (values != 0)
    where = row * size + col
    return np.tile(stack, 4)[keep], where[keep], values[keep]


def evolve_lindblad(h: np.ndarray, collapse, rho0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Single-system wrapper around evolve_lindblad_batch; states (T, d, d)."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"rho0 must be a square matrix, got shape {rho0.shape}")
    traj = evolve_lindblad_batch(h, collapse, rho0[None, :, :], grid)
    return Trajectory(traj.times, traj.states[:, 0])


def integrate_amplitudes(model, c0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Reduced single-photon amplitudes of the bus-eliminated model.

    Solves i dc_j/dt = sum_k chi_jk exp(i delta_jk t) c_k with c(t_start) = c0,
    the rotating-frame form of the effective hopping model that remains valid
    when Lamb-shifted frequencies differ.  With delta_j = delta_j0 and
    a_j = c_j exp(-i delta_j t) the equations read i da/dt = (diag(delta) +
    chi) a, which evolve_unitary propagates exactly.
    """
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != (model.n,):
        raise ValueError(f"c0 must have shape ({model.n},), got {c0.shape}")
    delta = model.delta_ij[:, 0]
    a0 = c0 * np.exp(-1j * delta * grid.t_start)
    rotated = evolve_unitary(np.diag(delta) + model.chi, a0, grid)
    states = rotated.states * np.exp(1j * np.outer(grid.times, delta))
    norm0 = float(np.linalg.norm(c0))
    _check_conserved("amplitude norm", np.linalg.norm(states, axis=1), norm0, grid.times)
    return Trajectory(grid.times, states)
