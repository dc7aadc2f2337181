"""Independent outcome-probability oracle for states with primitive hidden modes.

A photon k is created by ``x_k * mH + exp(i*pi*phi_k) * mV`` in a primitive
hidden mode m.  Photons in different primitive modes are in orthogonal
modes, so their polarization counts are independent; photons that share a
mode form a single-mode bosonic state.  After the waveplates U, a group with
polarization vectors psi_k is the polynomial prod_k (U psi_k) . (x, y) in the
H and V creation operators; writing c_r for the coefficient of
x^(n-r) y^r, P(N_V = r) is proportional to |c_r|^2 (n-r)! r!.  The outcome
distribution of the whole state is the convolution of the group
distributions.  None of this uses the program's Schur basis, expansion or
hidden trace, which is what makes it a check on them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def photon_vector(x: float, phi: float) -> np.ndarray:
    """Polarization amplitudes (H, V) of the factor ``x*mH + exp(i*pi*phi)*mV``."""
    return np.array([x, cmath.exp(1j * math.pi * phi)])


def group_distribution(vectors: list[np.ndarray], unitary: np.ndarray) -> np.ndarray:
    """P(N_V = r), r = 0..n, for photons that share one hidden mode."""
    poly = np.array([1.0 + 0.0j])          # coefficients of y^r, x implicit
    for vec in vectors:
        h, v = unitary @ vec
        poly = np.convolve(poly, np.array([h, v]))
    n = len(vectors)
    weights = np.array([abs(c) ** 2 * math.factorial(n - r) * math.factorial(r)
                        for r, c in enumerate(poly)])
    return weights / weights.sum()


def outcome_distribution(photons: list[tuple[str, float, float]],
                         unitary: np.ndarray) -> np.ndarray:
    """Outcome probabilities ordered by N_V = 0..N for photons (mode, x, phi)."""
    groups: dict[str, list[np.ndarray]] = {}
    for mode, x, phi in photons:
        groups.setdefault(mode, []).append(photon_vector(x, phi))
    dist = np.array([1.0])
    for vectors in groups.values():
        dist = np.convolve(dist, group_distribution(vectors, unitary))
    return dist
