"""Independent reference implementations used to cross-check the package.

Everything here is computed with explicit bit arithmetic and dense matrix
algebra, deliberately avoiding the package's reshape/transpose kernels so
the two sides of each comparison share no code.  The two exceptions are
kept as bit-for-bit references: the per-probe writer of bound-scan's probe
matrices, which shares ``Bipartition.matricize``, and the column-first
circuit kernel at the end, for the package's circuit columns, which shares
only the fusion plan.
"""

from __future__ import annotations

import numpy as np


def embed_gate(gate: np.ndarray, targets: tuple[int, int], num_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n embedding of a 4x4 gate; qubit 0 is the MSB."""
    q1, q2 = targets
    dim = 2**num_qubits
    shift1 = num_qubits - 1 - q1
    shift2 = num_qubits - 1 - q2
    out = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        b1 = (col >> shift1) & 1
        b2 = (col >> shift2) & 1
        gate_col = 2 * b1 + b2
        base = col & ~(1 << shift1) & ~(1 << shift2)
        for gate_row in range(4):
            row = base | ((gate_row >> 1) << shift1) | ((gate_row & 1) << shift2)
            out[row, col] = gate[gate_row, gate_col]
    return out


def circuit_matrix(circuit) -> np.ndarray:
    """Dense 2^n x 2^n product of a circuit's embedded gates, the first gate applied first."""
    n = circuit.num_qubits
    u = np.eye(2**n, dtype=np.complex128)
    for gate in circuit.gates:
        u = embed_gate(gate.matrix, gate.targets, n) @ u
    return u


def gate_is_unitary(gate: np.ndarray, tol: float = 1e-8) -> bool:
    """One 4x4 gate at a time: both G†G and GG† within ``tol`` of I, entry by entry."""
    eye = np.eye(4)
    gram = gate.conj().T @ gate
    cogram = gate @ gate.conj().T
    return bool(np.abs(gram - eye).max() <= tol and np.abs(cogram - eye).max() <= tol)


def basis_vector(num_qubits: int, index: int) -> np.ndarray:
    """Amplitudes of the computational basis state |index>; qubit 0 is the MSB."""
    vec = np.zeros(2**num_qubits, dtype=np.complex128)
    vec[index] = 1.0
    return vec


def split_amplitudes(
    vec: np.ndarray, num_qubits: int, side_a: tuple[int, ...]
) -> np.ndarray:
    """Amplitudes as a (side-A index) x (side-B index) matrix, bit by bit."""
    side_b = [q for q in range(num_qubits) if q not in side_a]
    out = np.zeros((2 ** len(side_a), 2 ** len(side_b)), dtype=np.complex128)
    for idx in range(2**num_qubits):
        bits = [(idx >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        a = 0
        for q in side_a:
            a = (a << 1) | bits[q]
        b = 0
        for q in side_b:
            b = (b << 1) | bits[q]
        out[a, b] = vec[idx]
    return out


def register_index(num_qubits: int, side_a: tuple[int, ...], i: int, j: int) -> int:
    """Basis index whose side-A bits read i and side-B bits j, bit by bit.

    ``side_a`` is ascending; each side's first label carries its index's MSB.
    """
    side_b = [q for q in range(num_qubits) if q not in side_a]
    bits = [0] * num_qubits
    for k, q in enumerate(side_a):
        bits[q] = (i >> (len(side_a) - 1 - k)) & 1
    for k, q in enumerate(side_b):
        bits[q] = (j >> (len(side_b) - 1 - k)) & 1
    x = 0
    for bit in bits:
        x = (x << 1) | bit
    return x


def schmidt_coefficients(
    vec: np.ndarray, num_qubits: int, side_a: tuple[int, ...]
) -> np.ndarray:
    """Decreasing Schmidt coefficients via the reduced Gram matrix."""
    m = split_amplitudes(vec, num_qubits, side_a)
    gram = m @ m.conj().T
    eigs = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(np.sort(eigs)[::-1], 0.0, None))


def realign_entrywise(
    mat: np.ndarray, num_qubits: int, side_a: tuple[int, ...]
) -> np.ndarray:
    """Entry-by-entry realignment ((rA rB),(cA cB)) -> ((rA cA),(rB cB))."""
    side_b = [q for q in range(num_qubits) if q not in side_a]
    d_a, d_b = 2 ** len(side_a), 2 ** len(side_b)
    out = np.zeros((d_a * d_a, d_b * d_b), dtype=np.complex128)

    def split(idx: int) -> tuple[int, int]:
        bits = [(idx >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        a = 0
        for q in side_a:
            a = (a << 1) | bits[q]
        b = 0
        for q in side_b:
            b = (b << 1) | bits[q]
        return a, b

    for row in range(2**num_qubits):
        r_a, r_b = split(row)
        for col in range(2**num_qubits):
            c_a, c_b = split(col)
            out[r_a * d_a + c_a, r_b * d_b + c_b] = mat[row, col]
    return out


def partial_trace_entrywise(
    mat: np.ndarray, num_qubits: int, traced: tuple[int, ...]
) -> np.ndarray:
    """Partial trace by explicit index summation."""
    keep = [q for q in range(num_qubits) if q not in traced]
    d_keep = 2 ** len(keep)
    out = np.zeros((d_keep, d_keep), dtype=np.complex128)

    def assemble(keep_idx: int, traced_idx: int) -> int:
        full = 0
        keep_bits = [(keep_idx >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
        traced_bits = [
            (traced_idx >> (len(traced) - 1 - k)) & 1 for k in range(len(traced))
        ]
        for k, q in enumerate(keep):
            full |= keep_bits[k] << (num_qubits - 1 - q)
        for k, q in enumerate(traced):
            full |= traced_bits[k] << (num_qubits - 1 - q)
        return full

    for r in range(d_keep):
        for c in range(d_keep):
            total = 0.0 + 0.0j
            for t in range(2 ** len(traced)):
                total += mat[assemble(r, t), assemble(c, t)]
            out[r, c] = total
    return out


def tree_split_sizes(
    edges: tuple[tuple[int, int], ...], num_leaves: int, removed: tuple[int, int]
) -> tuple[int, int]:
    """Leaf counts of the two components after deleting one edge."""
    adjacency: dict[int, list[int]] = {}
    for u, v in edges:
        if tuple(sorted((u, v))) == tuple(sorted(removed)):
            continue
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    start = removed[0]
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other in adjacency.get(node, []):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    side = sum(1 for leaf in range(num_leaves) if leaf in seen)
    return side, num_leaves - side


def probe_matrix(
    tau: float, register_cut, j: int, column: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """One probe's [e_j^T ; tau R(W|x>)] / 2^{n+1} written into the (2^a + 1, 2^b) ``out``.

    The per-probe reference for ``dqc1_model.probe_stack``: the e_j row,
    then the column matricized across the register cut in one strided
    copy, then the register rows multiplied by tau 2^-(n+1).  Each slot of
    a stack must hold these bits exactly.
    """
    scale = 2.0 ** -(register_cut.total_qubits + 1)
    out[0] = 0.0
    out[0, j] = scale
    register_cut.matricize(column, out=out[1:])
    out[1:] *= tau * scale
    return out


def _column_first_insert(t, order, qubits, xs, n):
    """Carry the qubits ``order`` lacks, one-hot at their bits of xs[j], right after the column axis."""
    new = [q for q in qubits if q not in order]
    if not new:
        return t, order
    k = t.shape[0]
    bits = np.zeros(k, dtype=np.intp)
    for q in new:
        bits = 2 * bits + ((xs >> (n - 1 - q)) & 1)
    grown = np.zeros((k, 2 ** len(new)) + t.shape[1:], dtype=np.complex128)
    grown[np.arange(k), bits] = t
    order = new + order
    return grown.reshape((k,) + (2,) * len(order)), order


def column_first_blocks(blocks, t: np.ndarray, carried, n: int, xs=None) -> np.ndarray:
    """(qubits, matrix) blocks applied to k columns with the column axis first, as (2^n, k).

    ``t`` has shape (k, 2, ..., 2) and its axis a + 1 holds qubit
    ``carried[a]``; a qubit outside it enters one-hot at its bit of xs[j]
    just before the first block that touches it.  Every block is one
    (2^w, R) product per column, whatever R, and each matrix is used in
    the memory order it comes in.
    """
    k = t.shape[0]
    order = list(carried)
    for qubits, matrix in blocks:
        t, order = _column_first_insert(t, order, qubits, xs, n)
        rest = [q for q in order if q not in qubits]
        perm = [0] + [1 + order.index(q) for q in (*qubits, *rest)]
        flat = t.transpose(perm).reshape(k, matrix.shape[0], -1)
        t = np.matmul(matrix, flat).reshape(t.shape)
        order = [*qubits, *rest]
    t, order = _column_first_insert(t, order, range(n), xs, n)
    perm = [1 + order.index(q) for q in range(n)] + [0]
    return t.transpose(perm).reshape(2**n, k)


def column_first_fused_blocks(circuit) -> list:
    """The circuit's fused (qubits, matrix) blocks, each built by :func:`column_first_blocks`."""
    from dqc1kit.randomness import plan_blocks

    blocks = []
    for qubits, members in plan_blocks(circuit.gates):
        local = {q: a for a, q in enumerate(qubits)}
        steps = [
            (tuple(local[q] for q in circuit.gates[i].targets), circuit.gates[i].matrix)
            for i in members
        ]
        width = len(qubits)
        identity = np.eye(2**width, dtype=np.complex128).reshape((2**width,) + (2,) * width)
        blocks.append((qubits, column_first_blocks(steps, identity, range(width), width)))
    return blocks


def column_first_columns(circuit, xs, adjoint: bool = False) -> np.ndarray:
    """C|x> (or C-dagger|x>) for each listed x, on the light cone, as a (2^n, k) block."""
    blocks = column_first_fused_blocks(circuit)
    if adjoint:
        blocks = [(qubits, mat.conj().T) for qubits, mat in reversed(blocks)]
    xs = np.asarray(xs, dtype=np.intp)
    n = circuit.num_qubits
    return column_first_blocks(blocks, np.ones(xs.size, dtype=np.complex128), (), n, xs)


def column_first_state(circuit, amplitudes: np.ndarray) -> np.ndarray:
    """C|psi> with every qubit carried from the start."""
    n = circuit.num_qubits
    t = amplitudes.reshape((1,) + (2,) * n)
    return column_first_blocks(column_first_fused_blocks(circuit), t, range(n), n)[:, 0]
