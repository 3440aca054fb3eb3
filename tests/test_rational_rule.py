"""The rational rule behind ``evolve``'s diffusive intervals.

``pumping._P`` and ``pumping._W`` are the seven upper-half poles and weights
of the type-(14, 14) Caratheodory-Fejer approximation of exp on (-inf, 0]
(Trefethen, Weideman & Schmelzer, BIT 46, 2006, sec. 4), so that
``r(z) = sum_j Im(w_j / (p_j - z))`` on the real axis.  Here the constants
are held to the accuracy the ``pumping`` docstrings state, on the negative
real axis and on the boundary of the region ``_check_sector`` accepts, and
the recipe that produced them is run again.
"""

import numpy as np
import pytest

from afcsim import pumping
from afcsim.errors import SpectrumOutsideContour

SECTOR_DEG = 22.8
DISC = 0.5


def rational(z):
    """``r(z)`` continued off the real axis: each upper-half pole and its
    conjugate, the pair whose sum is ``Im(w / (p - z))`` for real ``z``."""
    z = np.asarray(z, dtype=complex)[..., None]
    p, w = pumping._P, pumping._W
    return np.sum((w / (p - z) - np.conj(w) / (np.conj(p) - z)) / 2j, axis=-1)


def cf_recipe():
    """Poles and weights from the TWS sec. 4 recipe, as the constants were made."""
    from scipy.linalg import hankel, svd

    n_fft, k, scale = 1024, 75, 9.0
    t = np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    with np.errstate(divide="ignore"):
        values = np.exp(scale * (t - 1.0) / (t + 1.0 + 1e-16))
    cheb = np.real(np.fft.fft(values)) / n_fft
    vh = svd(hankel(cheb[1:k + 1]))[2]
    roots = np.roots(vh[14])
    q = roots[np.abs(roots) > 1.0]
    poles = scale * (q - 1.0) ** 2 / (q + 1.0) ** 2
    poles = np.sort_complex(poles[poles.imag > 0])
    x = -np.concatenate([[0.0], np.logspace(-6.0, np.log10(2000.0), 4000)])
    inv = 1.0 / (poles[None, :] - x[:, None])
    coef = np.linalg.lstsq(np.hstack([inv.imag, inv.real]), np.exp(x), rcond=None)[0]
    weights = coef[:7] + 1j * coef[7:]
    return poles, weights / np.sum((weights / poles).imag)


def test_accurate_on_the_negative_real_axis():
    x = -np.concatenate([[0.0], np.logspace(-8.0, 6.0, 4001)])
    assert np.max(np.abs(rational(x) - np.exp(x))) <= 1e-13


def test_accurate_on_the_guard_region_boundary():
    radius = np.logspace(-8.0, 6.0, 2001)
    for sign in (1.0, -1.0):
        z = -radius * np.exp(1j * sign * np.radians(SECTOR_DEG))
        assert np.max(np.abs(rational(z) - np.exp(z))) <= 2e-11
    arc = DISC * np.exp(1j * np.linspace(np.pi / 2.0, 3.0 * np.pi / 2.0, 2001))
    assert np.max(np.abs(rational(arc) - np.exp(arc))) <= 2e-11


def test_exact_at_zero():
    # r(0) = 1 keeps the per-bin mass, the generator's null mode
    assert abs(np.sum((pumping._W / pumping._P).imag) - 1.0) <= 1e-15


def test_recipe_reproduces_the_constants():
    poles, weights = cf_recipe()
    assert np.max(np.abs(poles - pumping._P)) <= 1e-10
    # the least-squares fit has condition number about 4e7
    assert np.max(np.abs(weights - pumping._W) / np.abs(pumping._W)) <= 1e-6


def test_guard_region():
    # 0.39 and 0.4 rad are 22.3 and 22.9 degrees
    inside = [-1e6, -1e6 * np.exp(0.39j), 0.499 * np.exp(2.0j), 0.49, 0.3j, 0.0]
    outside = [0.51, 0.6j, -1e3 * np.exp(0.4j), -0.6 * np.exp(0.5j), 2.0]
    pumping._check_sector(np.array(inside), 1.0)
    for lam in outside:
        with pytest.raises(SpectrumOutsideContour):
            pumping._check_sector(np.array([lam]), 1.0)
