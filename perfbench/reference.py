"""Exact reference propagator for ``afcsim.pumping.evolve``.

While the pump is constant the rate equations are linear.  Each bin's four
populations (g, z, h, e) evolve under a fixed 4x4 generator

    dg/dt = -R g + (R + (1 - bz - bh)/T1) e + k dev + h/t_short
    dz/dt = bz e/T1 - k dev
    dh/dt = bh e/T1 - h/t_short
    de/dt = R g - (R + 1/T1) e

with ``dev = z - f (g + z)``, ``f`` the thermal upper-level fraction and
``k = 1/t_long + kappa_fill * P`` the spin relaxation plus TLS fill.  Spectral
diffusion couples the bins: ``(kappa_diff * P / (2 dnu^2)) * L`` acting on
every level, with ``L`` the reflective-boundary Laplacian.  The whole system
is one sparse generator ``A = blockdiag(A_i) + D (L x I4)`` per interval, and
``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011) applies
``exp(A t)`` to the state exactly up to its own rounding.

Only the per-bin pump rate R comes from the program
(``pumping.pump_rate_profile``), because it is an input of ``evolve``, not part
of the integrator.  ``t_long`` and ``f`` are recomputed here from their closed
forms in ``closedform``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from closedform import flipflop_rate, spin_argument


def _laplacian(n):
    if n == 1:
        return sparse.csr_matrix((1, 1))
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sparse.diags([off, main, off], [-1, 0, 1], format="csr")


def generator(rate, power, params, tls, bin_width):
    """Sparse generator of the four-level rate equations on ``rate.size`` bins.

    Unknowns are ordered bin-major: index ``4*i + level`` with levels
    (g, z, h, e).
    """
    rate = np.asarray(rate, dtype=float)
    n = rate.size
    a = 1.0 / params.t1_opt
    s = 1.0 / params.t_short
    bz, bh = params.beta_zeeman, params.beta_shf
    f = (1.0 - np.tanh(spin_argument(params.b_field, params.temperature,
                                     params.g_factor))) / 2.0
    k = flipflop_rate(params.b_field, params) + tls.kappa_fill * power
    one = np.ones(n)
    g, z, h, e = 0, 1, 2, 3
    entries = [
        (g, g, -rate - k * f), (g, z, k * (1.0 - f) * one), (g, h, s * one),
        (g, e, rate + (1.0 - bz - bh) * a),
        (z, g, k * f * one), (z, z, -k * (1.0 - f) * one), (z, e, bz * a * one),
        (h, h, -s * one), (h, e, bh * a * one),
        (e, g, rate), (e, e, -rate - a),
    ]
    base = 4 * np.arange(n)
    rows = np.concatenate([base + r for r, _, _ in entries])
    cols = np.concatenate([base + c for _, c, _ in entries])
    vals = np.concatenate([v for _, _, v in entries])
    op = sparse.csr_matrix((vals, (rows, cols)), shape=(4 * n, 4 * n))
    coeff = tls.kappa_diff * power / (2.0 * bin_width ** 2)
    if coeff > 0.0:
        op = op + coeff * sparse.kron(_laplacian(n), sparse.identity(4), format="csr")
    return op.tocsr()


def propagate(state, seq, params, tls, record_times, rate_profile):
    """Exact populations at ``record_times``, as an array (times, bins, 4).

    ``rate_profile(segment, grid, params)`` gives the per-bin pump rate of a
    segment; the dark tail has rate zero and no TLS drive.
    """
    grid = state.grid
    intervals = [(seg.duration, rate_profile(seg, grid, params), seg.total_power)
                 for seg in seq.segments]
    if seq.dark_after > 0:
        intervals.append((seq.dark_after, np.zeros(grid.n_bins), 0.0))
    x = np.stack([state.n_g, state.n_z, state.n_h, state.n_e], axis=1).ravel()
    pending = list(record_times)
    out = []
    now = 0.0
    eps = 1e-12
    while pending and pending[0] <= now + eps:
        out.append(x.copy())
        pending.pop(0)
    for duration, rate, power in intervals:
        op = generator(rate, power, params, tls, grid.bin_width)
        end = now + duration
        while pending and pending[0] <= end + eps:
            x = expm_multiply(op * (pending[0] - now), x)
            now = pending.pop(0)
            out.append(x.copy())
        if end > now + eps:
            x = expm_multiply(op * (end - now), x)
        now = end
    return np.array(out).reshape(len(out), grid.n_bins, 4)


def populations(states):
    """Stack ``EnsembleState`` snapshots as an array (times, bins, 4)."""
    return np.array([np.stack([s.n_g, s.n_z, s.n_h, s.n_e], axis=1) for s in states])
