"""Independent reference computations used as test oracles.

Everything here is built from first principles (numpy primitives, explicit
summation), never from the library's own circuit machinery. Two exceptions:
``lifted_action``, the per-column simulation that the library's one-column
eigen profile replaced, kept to guard the profile's precondition; and
``embed_moveaxis``, the gate embedding that ``apply_batch``'s view and
broadcast kernels replaced, which only calls the operators' own
whole-block transforms.
States are plain (2^n, batch) column arrays, as in the library; ``lift``
places system columns on one ancilla basis state.
"""
from __future__ import annotations

import math

import numpy as np

from reflectsim.core_sim import ControlledOp, SequenceOp, apply_batch
from reflectsim.gaussian_kernel import kernel_value
from reflectsim.spectral_models import EigenUnitary, exact_reflection, synth_unitary


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT with kernel exp(+2 pi i jk / n)."""
    js = np.arange(n)
    return np.exp(2j * math.pi * np.outer(js, js) / n) / math.sqrt(n)


def shift_matrix(n: int, steps: int) -> np.ndarray:
    """Permutation matrix sending |j> to |j - steps mod n>."""
    return np.roll(np.eye(n), -steps, axis=0)


def centered_dft(n: int) -> np.ndarray:
    """X^(n/2) . F . X^(n/2) built densely."""
    half = shift_matrix(n, n // 2)
    return half @ dft_matrix(n) @ half


def gaussian_kernel_sum(lam: float, dz: float, L: int) -> complex:
    """Direct reverse-order summation of the truncated Gaussian kernel."""
    total = 0.0 + 0.0j
    for l in range(L - 1, -L - 1, -1):
        total += math.exp(-((l * dz) ** 2) / 2) * np.exp(1j * l * lam)
    return total * dz / math.sqrt(2 * math.pi)


def kernel_sup_dense_grid(params, points: int = 1000,
                          refine: int = 200) -> float:
    """sup of |kernel_value| over [delta, 2 pi - delta] by direct summation
    on points + 2 evenly spaced angles, edges included, plus ``refine``
    angles within one grid step of the best of them."""
    lo, hi = params.delta, 2 * math.pi - params.delta
    grid = np.linspace(lo, hi, points + 2)
    vals = np.abs(kernel_value(grid, params))
    best = int(np.argmax(vals))
    h = (hi - lo) / (points + 1)
    fine = np.linspace(max(lo, grid[best] - h), min(hi, grid[best] + h), refine)
    return max(float(vals[best]), float(np.abs(kernel_value(fine, params)).max()))


def phi_norm_reversed(lstar: int, L: int, dz: float) -> float:
    """Normalization sum of the source Gaussian, accumulated in reverse."""
    total = 0.0
    for l in range(lstar - 1, -lstar - 1, -1):
        total += math.exp(-2 * ((l * math.pi / (L * dz)) ** 2))
    return total


def spectral_norm(mat: np.ndarray, iters: int = 80, seed: int = 0) -> float:
    """2-norm by power iteration on M^dagger M (dense fallback for small)."""
    if mat.shape[0] <= 1024:
        return float(np.linalg.norm(mat, 2))
    return spectral_norm_implicit(
        lambda v: mat @ v, lambda v: mat.conj().T @ v, mat.shape[1],
        iters=iters, seed=seed)


def spectral_norm_implicit(matvec, rmatvec, dim: int, iters: int = 80,
                           seed: int = 0) -> float:
    """2-norm of an implicitly given operator via power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = matvec(v)
        v = rmatvec(w)
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        sigma = math.sqrt(nv)
        v /= nv
    return sigma


def unit_vector(dim: int, j: int) -> np.ndarray:
    """e_j: eigenvector j of U in U's own eigenbasis."""
    return np.eye(dim, dtype=np.complex128)[j]


def in_eigenbasis(basis: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """V^H mat V: a computational-basis system matrix in the coordinates of
    the orthonormal columns of ``basis``."""
    return basis.conj().T @ mat @ basis


def kron_chain(*mats: np.ndarray) -> np.ndarray:
    out = np.array([[1.0]], dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


def pea_zero_amplitude(lam: float, n_prime: int) -> complex:
    """<0|block|0> of one phase-estimation register on eigenphase lam:
    2^-n' sum_a e^{i a lam}, summed term by term. The inverse QFT meets
    |0> through F|0>, the uniform state, which truncation leaves exact."""
    total = 0.0 + 0.0j
    for a in range(1 << n_prime):
        total += complex(math.cos(a * lam), math.sin(a * lam))
    return total / (1 << n_prime)


def lift(system: np.ndarray, n_ancilla: int, ancilla_index: int = 0) -> np.ndarray:
    """|ancilla_index>|xi> for each column xi of ``system`` (a vector is one
    column): a (2^n_ancilla d, batch) array, the ancilla on the most
    significant index bits."""
    cols = np.asarray(system, dtype=np.complex128).reshape(len(system), -1)
    d = cols.shape[0]
    out = np.zeros((d << n_ancilla, cols.shape[1]), dtype=np.complex128)
    out[ancilla_index * d:(ancilla_index + 1) * d] = cols
    return out


def lifted_action(op, n_ancilla: int, columns: np.ndarray) -> np.ndarray:
    """op |0_anc>|xi> for each system column xi, simulated column by column
    in one batch: full-register output columns."""
    return apply_batch(op, lift(columns, n_ancilla), op.num_qubits)


def dense_misses(refl, states: np.ndarray) -> np.ndarray:
    """||A|0>|xi> - |0>R|xi>|| for each computational-basis system column
    xi of ``states``: A simulated on the whole register in the eigenbasis
    V of the reflector's instance, minus R = 2|psi0><psi0| - 1 built
    densely and moved to that basis."""
    unitary = refl.unitary
    basis = unitary.eigenbasis
    xi = basis.conj().T @ np.asarray(states).reshape(unitary.dimension, -1)
    r = in_eigenbasis(basis, exact_reflection(unitary))
    miss = (lifted_action(refl.a, refl.n_ancilla, xi)
            - lift(r @ xi, refl.n_ancilla))
    return np.linalg.norm(miss, axis=0)


def gap_edge_unitary() -> EigenUnitary:
    """D = 8, gap 0.5, with eigenphases exactly at +-gap, where the kernel
    is largest: errors there measure the construction rather than
    roundoff."""
    base = synth_unitary(8, 0.5, seed=7)
    phases = base.eigenphases.copy()
    phases[1], phases[2] = 0.5, 2 * math.pi - 0.5
    return EigenUnitary(8, phases, base.eigenbasis, 0.5)


def embed_moveaxis(op, columns: np.ndarray, num_qubits: int,
                   targets=None) -> np.ndarray:
    """op applied to each column at ``targets`` (default the whole
    register): move the target axes to the front, transform one contiguous
    (2^k, rest) block, move the axes back. Sequence and controlled ops
    recurse here, so every leaf gate is applied this way."""
    k = op.num_qubits
    tg = tuple(range(k)) if targets is None else tuple(targets)
    tensor = columns.reshape((2,) * num_qubits + (columns.shape[1],))
    moved = np.moveaxis(tensor, tg, range(k))
    flat = np.ascontiguousarray(moved).reshape(1 << k, -1)
    out = _block_transform(op, flat).reshape(moved.shape)
    return np.ascontiguousarray(
        np.moveaxis(out, range(k), tg)).reshape(columns.shape)


def _block_transform(op, block: np.ndarray) -> np.ndarray:
    if isinstance(op, SequenceOp):
        for sub, tg in op.steps:
            block = embed_moveaxis(sub, block, op.num_qubits, tg)
        return block
    if isinstance(op, ControlledOp):
        out = block.copy().reshape(1 << op.num_controls, op.sub.dim, -1)
        out[op.pattern] = _block_transform(op.sub, out[op.pattern])
        return out.reshape(block.shape)
    return op._transform(block)
