"""The Kronecker-product Liouvillian that the Lindblad tests take as reference."""

import numpy as np


def kron_generator(h, collapse):
    """The whole d^2 x d^2 generator of -i[h, rho] + sum kappa D[op] rho on
    row-major vec(rho), for collapse pairs (kappa, op) with scalar rates."""
    # assembled term by term from vec(A X B) = kron(A, B^T) vec(X)
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for kappa, op in collapse:
        n_op = op.conj().T @ op
        gen = gen + kappa * (
            np.kron(op, op.conj()) - 0.5 * np.kron(n_op, eye) - 0.5 * np.kron(eye, n_op.T)
        )
    return gen
