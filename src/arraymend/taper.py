"""Reference excitations and failure masking."""

from __future__ import annotations

import numpy as np

from .model import FailureScenario, as_weights


def _chebyshev(order: int, x: np.ndarray) -> np.ndarray:
    """Chebyshev polynomial T_order evaluated for any real argument."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(order * np.arccos(x[inside]))
    above = x > 1.0
    out[above] = np.cosh(order * np.arccosh(x[above]))
    below = x < -1.0
    sign = 1.0 if order % 2 == 0 else -1.0
    out[below] = sign * np.cosh(order * np.arccosh(-x[below]))
    return out


def dolph_chebyshev(n: int, sll_db: float) -> np.ndarray:
    """
    Broadside Dolph-Chebyshev taper with equiripple sidelobes at sll_db.

    The array factor of the returned weights at half-wavelength spacing is
    T_{n-1}(x0 * cos(pi*u/2)) with x0 = cosh(acosh(R)/(n-1)) and
    R = 10^(-sll_db/20). Coefficients are recovered by sampling that
    trigonometric polynomial at n points and inverting the DFT, which stays
    stable for large n. Output is real, symmetric, normalized to max 1.
    """
    if n < 3:
        raise ValueError("need at least 3 elements for a Chebyshev taper")
    if sll_db >= 0:
        raise ValueError("sidelobe level must be negative dB")
    order = n - 1
    ratio = 10.0 ** (-sll_db / 20.0)
    x0 = np.cosh(np.arccosh(ratio) / order)

    # B(psi) = exp(j*order*psi/2) * T_order(x0*cos(psi/2)) is a degree-(n-1)
    # polynomial in exp(j*psi); n equispaced samples determine it exactly.
    q = np.arange(n)
    psi = 2.0 * np.pi * q / n
    samples = np.exp(1j * order * psi / 2.0) * _chebyshev(order, x0 * np.cos(psi / 2.0))
    w = np.fft.fft(samples).real / n
    w = (w + w[::-1]) / 2.0
    return w / np.max(w)


def apply_failures(weights, scenario: FailureScenario) -> np.ndarray:
    """Zero out the excitations of failed elements."""
    w = as_weights(weights, scenario.n)
    out = w.copy()
    out[scenario.mask] = 0.0
    return out
