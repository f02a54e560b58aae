"""Independent reference computations used as test oracles.

Everything here is built from first principles (numpy primitives, explicit
summation), never from the library's own circuit machinery. Three
exceptions: ``lifted_action``, the per-column simulation that the
library's one-column eigen profile replaced, kept to guard the profile's
precondition; ``embed_moveaxis``, the gate embedding that ``apply_batch``'s
view and broadcast kernels replaced, which only calls the operators' own
whole-block transforms; and ``dense_layers``, a PEA reflector rebuilt with
each block's ancilla-local layers as dense matrices, which makes the
whole-register reference simulation fast.
The library stores an instance as its eigenphases alone; the eigenbases
that the dense references simulate in are rebuilt here from what built
each instance (``haar_basis``, ``grover_basis``, ``hamiltonian_basis``).
States are plain (2^n, batch) column arrays, as in the library; ``lift``
places system columns on one ancilla basis state.
"""
from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np

from reflectsim.core_sim import (
    ControlledOp,
    DenseOp,
    SequenceOp,
    apply_batch,
    op_matrix,
)
from reflectsim.gaussian_kernel import KernelParams, alpha_coeffs
from reflectsim.pea_reflector import PeaReflector, build_A_pea
from reflectsim.spectral_models import EigenUnitary, synth_unitary


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    dim = 1 << num_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_basis(dimension: int, seed: int) -> np.ndarray:
    """The Haar eigenbasis of ``synth_unitary(dimension, gap, seed)``, at
    any gap: QR of a complex Gaussian matrix drawn from the second of the
    two streams spawned from the seed (the phases come from the first),
    with R's diagonal phases moved into Q."""
    _, basis_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(basis_seed)
    g = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
        size=(dimension, dimension))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def grover_basis(dimension: int, marked: int) -> np.ndarray:
    """The real eigenbasis of ``grover_unitary(dimension, marked)``, as
    complex columns in the order of its eigenphases: the two vectors of the
    {|marked>, |s>} plane in closed form (see ``grover_unitary``), then
    the Helmert basis of the complement over the unmarked indices, whose
    column k is (1, ..., 1, -k, 0, ..., 0)/sqrt(k (k + 1)), k ones."""
    d = dimension
    a = 1 / math.sqrt(d)
    b = math.sqrt(1 - 1 / d)
    basis = np.zeros((d, d))
    basis[:, 0] = a * (b - a) / b
    basis[marked, 0] = a + b
    basis[:, 1] = -a * (a + b) / b
    basis[marked, 1] = b - a
    basis[:, :2] /= math.sqrt(2)
    k = np.arange(1.0, d - 1)
    norms = 1 / np.sqrt(k * (k + 1))
    helmert = np.triu(np.ones((d - 1, d - 2))) * norms
    helmert[np.arange(1, d - 1), np.arange(d - 2)] = -k * norms
    basis[np.arange(d) != marked, 2:] = helmert
    return basis.astype(np.complex128)


def grover_states(dimension: int, marked: int) -> tuple[np.ndarray, np.ndarray]:
    """|s>, the uniform superposition, and the exact target
    psi~ = (|s> + |marked>)/sqrt(2 (1 + 1/sqrt(D))), whose reflection maps
    |s> to |marked>."""
    a = 1 / math.sqrt(dimension)
    s = np.full(dimension, a)
    t = np.zeros(dimension)
    t[marked] = 1.0
    return s, (s + t) / math.sqrt(2 * (1 + a))


def hamiltonian_basis(hamiltonian: np.ndarray, lambda0: float) -> np.ndarray:
    """The eigenbasis of ``hamiltonian_unitary(hamiltonian, lambda0)``:
    the eigenvectors from ``eigh``, the target's first and the rest in
    ascending order of their eigenvalues."""
    evals, evecs = np.linalg.eigh(np.asarray(hamiltonian, dtype=np.complex128))
    i0 = int(np.abs(evals - lambda0).argmin())
    return np.concatenate((evecs[:, [i0]], np.delete(evecs, i0, axis=1)),
                          axis=1)


def power_matrix(unitary: EigenUnitary, basis: np.ndarray, k: int) -> np.ndarray:
    """U^k in the computational basis, exact for any signed integer k:
    V diag(exp(i k lambda)) V^H for the instance's eigenbasis V."""
    phase = np.exp(1j * k * unitary.eigenphases)
    return (basis * phase) @ basis.conj().T


def exact_reflection(basis: np.ndarray) -> np.ndarray:
    """2|psi0><psi0| - 1 as a dense computational-basis matrix, psi0 the
    first column of the eigenbasis; in U's eigenbasis it is the sign vector
    (1, -1, ..., -1)."""
    psi = basis[:, 0]
    return 2 * np.outer(psi, psi.conj()) - np.eye(len(psi))


def chernoff_tail(params: KernelParams) -> tuple[float, float]:
    """(directly summed |l| >= L tail, Chernoff bound 2 exp(-((L-1)dz)^2/2)).

    The direct sum runs to 8L terms, far past where the Gaussian underflows.
    """
    ls = np.arange(params.L, 8 * params.L)
    tail = 2 * (params.dz / math.sqrt(2 * math.pi)) * float(
        np.sum(np.exp(-((ls * params.dz) ** 2) / 2))
    )
    bound = 2 * math.exp(-(((params.L - 1) * params.dz) ** 2) / 2)
    return tail, bound


def leakage_amplitude_bound(n_prime: int, delta: float) -> float:
    """Geometric-series bound 1 / (2^n' sin(delta/2)) on the per-register
    ancilla-zero amplitude over the gapped region."""
    return 1 / ((1 << n_prime) * math.sin(delta / 2))


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


# 2 pi - fl(2 pi), from a 40-digit pi
with mpmath.workdps(40):
    TWO_PI_LO = float(2 * mpmath.pi - 2 * math.pi)


def trig_poly_direct(coeffs: np.ndarray, lam):
    """sum_l coeffs[l + L] e^{i l lam} over l = -L .. L-1, by direct
    summation: 2L exponentials per angle, in chunks of 2^22 entries.

    Angles above pi are first moved down by 2 pi, taken as fl(2 pi) plus
    its remainder, as ``gaussian_kernel.trig_poly`` does."""
    half = coeffs.shape[0] // 2
    ls = np.arange(-half, half)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    lam_arr = np.where(lam_arr > math.pi,
                       (lam_arr - 2 * math.pi) - TWO_PI_LO, lam_arr)
    out = np.empty(lam_arr.shape[0], dtype=np.complex128)
    step = max(1, (1 << 22) // (2 * half))
    for i in range(0, lam_arr.shape[0], step):
        chunk = lam_arr[i:i + step]
        out[i:i + step] = np.exp(1j * np.outer(chunk, ls)) @ coeffs
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return complex(out[0])
    return out


def trig_poly_mp(coeffs: np.ndarray, lams, bits: int = 192) -> list:
    """sum_l coeffs[l + L] e^{i l lam} at each double angle, to 40 digits,
    as ``mpmath.mpc`` values.

    Each coefficient is truncated to a multiple of 2^-bits times its
    largest power-of-two bound, and mpmath gives e^{i lam}, e^{i B lam}
    and e^{-i L lam} to 2^-bits; every other exponential is a product of
    these in fixed point, with l = r B - L + b as in a baby-step
    giant-step split. The sums are exact integer arithmetic. Each of the
    2L terms then errs by at most 3 (B + 2L/B + 1) 2^-bits of the largest
    coefficient's power-of-two bound, far below 10^-40 of it for
    2L <= 2^20 at the default bits."""
    coeffs = np.asarray(coeffs)
    size = coeffs.shape[0]
    baby = 1 << (size.bit_length() // 2)
    giant = -(-size // baby)
    top = math.frexp(float(np.abs(coeffs).max()))[1]

    def fixed(part):
        """floor(part * 2^(bits - top)) as Python ints, from each double's
        53-bit integer mantissa and its exponent."""
        padded = np.zeros(giant * baby)
        padded[:size] = part
        mant, exp = np.frexp(padded)
        ints = np.ldexp(mant, 53).astype(np.int64).astype(object)
        shift = exp.astype(np.int64) + (bits - top - 53)
        ints = (ints << np.maximum(shift, 0)) >> np.maximum(-shift, 0)
        return ints.reshape(giant, baby)

    tables = [fixed(coeffs.real)]
    if np.iscomplexobj(coeffs):
        tables.append(fixed(coeffs.imag))
    one = 1 << bits

    def unit(angle):
        z = mpmath.expj(angle)
        return int(mpmath.nint(z.real * one)), int(mpmath.nint(z.imag * one))

    def powers(start, step, count):
        """start * step^k for k < count, in fixed point: (re, im) arrays."""
        (re, im), (sr, si) = start, step
        res, ims = [], []
        for _ in range(count):
            res.append(re)
            ims.append(im)
            re, im = (re * sr - im * si) >> bits, (re * si + im * sr) >> bits
        return np.array(res, dtype=object), np.array(ims, dtype=object)

    values = []
    for lam in np.atleast_1d(lams).tolist():
        with mpmath.workprec(bits + 32):
            x = mpmath.mpf(lam)
            br, bi = powers((one, 0), unit(x), baby)
            gr, gi = powers(unit(-(size // 2) * x), unit(baby * x), giant)
        sr, si = tables[0] @ br, tables[0] @ bi
        if len(tables) == 2:
            sr, si = sr - tables[1] @ bi, si + tables[1] @ br
        re, im = int(sr @ gr - si @ gi), int(sr @ gi + si @ gr)
        with mpmath.workprec(4 * bits):
            values.append(mpmath.mpc(mpmath.ldexp(re, top - 3 * bits),
                                     mpmath.ldexp(im, top - 3 * bits)))
    return values


def kernel_sup_dense_grid(params, points: int = 1000,
                          refine: int = 200) -> float:
    """sup of |kernel_value| over [delta, 2 pi - delta], evaluated on
    points + 2 evenly spaced angles, edges included, plus ``refine``
    angles within one grid step of the best of them. Every angle is summed
    by ``trig_poly_direct``, not by the evaluator under test."""
    coeffs = alpha_coeffs(params)
    lo, hi = params.delta, 2 * math.pi - params.delta
    grid = np.linspace(lo, hi, points + 2)
    vals = np.abs(trig_poly_direct(coeffs, grid))
    best = int(np.argmax(vals))
    h = (hi - lo) / (points + 1)
    fine = np.linspace(max(lo, grid[best] - h), min(hi, grid[best] + h), refine)
    return max(float(vals[best]),
               float(np.abs(trig_poly_direct(coeffs, fine)).max()))


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


def grover_matrix(dimension: int, marked: int) -> np.ndarray:
    """The search-derived unitary built densely:
    -exp(-i theta) V^dagger R_s R_t V with theta = arccos(1 - 2/D),
    V = 1 + (i - 1)|s><s|, R_s = 2|s><s| - 1 and R_t = 2|t><t| - 1."""
    d = dimension
    s, _ = grover_states(d, marked)
    v = np.eye(d, dtype=np.complex128) + (1j - 1) * np.outer(s, s)
    r_s = 2 * np.outer(s, s) - np.eye(d)
    r_t = -np.ones(d)
    r_t[marked] = 1.0
    theta = math.acos(1 - 2 / d)
    # R_t is diagonal: R_s R_t scales R_s's columns
    return -np.exp(-1j * theta) * v.conj().T @ (r_s * r_t) @ v


def grover_hit_via_basis(instance, refl) -> complex:
    """<0, marked|A|0, s> through the D x D eigenbasis, the form ``grover``
    read before the two-eigenvector one: <0|A|0> at every eigenphase times
    |s> in the eigenbasis, then the marked row of the basis."""
    basis = grover_basis(instance.dimension, instance.marked)
    s, _ = grover_states(instance.dimension, instance.marked)
    a0, _ = refl.a_column(instance.unitary.eigenphases)
    return complex(basis[instance.marked] @ (a0 * (s.conj() @ basis).conj()))


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


def dense_misses(refl, basis: np.ndarray, states: np.ndarray) -> np.ndarray:
    """||A|0>|xi> - |0>R|xi>|| for each computational-basis system column
    xi of ``states``: A simulated on the whole register in the eigenbasis
    ``basis`` of the reflector's instance, minus R = 2|psi0><psi0| - 1
    built densely and moved to that basis."""
    xi = basis.conj().T @ np.asarray(states).reshape(len(basis), -1)
    r = in_eigenbasis(basis, exact_reflection(basis))
    miss = (lifted_action(refl.a, refl.n_ancilla, xi)
            - lift(r @ xi, refl.n_ancilla))
    return np.linalg.norm(miss, axis=0)


def gap_edge_unitary() -> EigenUnitary:
    """D = 8, gap 0.5, with eigenphases exactly at +-gap, where the kernel
    is largest: errors there measure the construction rather than
    roundoff. The other phases are those of ``synth_unitary(8, 0.5, 7)``,
    and its eigenbasis is that instance's, ``haar_basis(8, 7)``."""
    phases = synth_unitary(8, 0.5, seed=7).eigenphases.copy()
    phases[1], phases[2] = 0.5, 2 * math.pi - 0.5
    return EigenUnitary(8, phases, 0.5)


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


def dense_layers(refl: PeaReflector) -> PeaReflector:
    """``refl`` with W and A rebuilt from its block, whose Hadamard wall and
    inverse QFT each become one dense matrix with the layer's footprint.
    The matrices are the products of the production layers, so this is the
    same operator; simulating the whole register then takes one product
    per layer instead of one pass per gate or per QFT layer."""
    (_, block, _), *_ = refl.layers
    (wall, anc), ladder, (iqft, _) = block.steps
    dense = SequenceOp(block.num_qubits, [
        (DenseOp(op_matrix(wall), wall.footprint), anc), ladder,
        (DenseOp(op_matrix(iqft), iqft.footprint), anc)])
    w = SequenceOp(refl.w.num_qubits, [(dense, tg) for _, tg in refl.w.steps])
    return dataclasses.replace(refl, w=w, a=build_A_pea(w, refl.n_ancilla))
