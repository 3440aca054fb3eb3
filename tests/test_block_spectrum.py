"""The closed-form block spectrum behind ``evolve``'s spectrum guard.

With spectral diffusion on, ``evolve`` checks that every distinct-rate 4x4
block ``relax + R pump`` has its spectrum where its rational rule for exp is
held accurate.
``pumping._block_spectrum`` gives the three eigenvalues other than 0 from the
blocks' characteristic cubic.  Here they are held against
``np.linalg.eigvals`` over valid materials and rates from 0 to 1e9 s^-1,
through the rates where two eigenvalues merge into a complex pair, and near
the largest angle off the negative real axis that valid materials reach
(20.7 degrees, against the guard's 22.8-degree sector).  Root errors
are relative to the block's spectral radius, since ``eigvals`` itself is
accurate only to rounding of that size.  Where two or three eigenvalues (nearly)
coincide, a cubic's roots move by sqrt(eps) or cbrt(eps) of the radius under
rounding of its coefficients, even where the block's eigenvalues do not; there
only the verdict and that looser bound are held.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import afcsim as a
from afcsim import pumping
from afcsim.errors import SpectrumOutsideContour
from afcsim.relaxation import TlsParams

ROOT_BOUND = 1e-10
# where two eigenvalues merge, a rounding error e in the block moves them by
# about sqrt(e), in eigvals as in the closed form
MERGE_BOUND = 3.0 * np.sqrt(np.finfo(float).eps)
# ROOT_BOUND holds where every two eigenvalues are this far apart, relative
# to the larger; closer, the cubic's roots are held to a cbrt(eps) bound
SEPARATED = 1e-3
COINCIDENT_BOUND = 10.0 * np.cbrt(np.finfo(float).eps)
SWEEP = np.concatenate([[0.0], np.logspace(-3.0, 9.0, 601)])
TAUS = (1e-6, 1e-3, 1.0, 1e3)


def reference(relax, pump, rates):
    """``eigvals`` of every block with the null eigenvalue, the one nearest
    0, taken out: an (n, 3) array."""
    eig = np.linalg.eigvals(relax + np.asarray(rates)[:, None, None] * pump)
    keep = np.ones(eig.shape, dtype=bool)
    keep[np.arange(len(eig)), np.argmin(np.abs(eig), axis=1)] = False
    return eig[keep].reshape(-1, 3)


def mismatch(got, want):
    """Per block, the largest distance from a root of either set to the
    nearest of the other, over the spectral radius."""
    dist = np.abs(got[:, :, None] - want[:, None, :])
    worst = np.maximum(dist.min(axis=2).max(axis=1), dist.min(axis=1).max(axis=1))
    return worst / np.abs(want).max(axis=1)


def separation(want):
    """Per block, the smallest distance between two of its three
    eigenvalues, over the larger of the two."""
    first, second = want[:, [0, 0, 1]], want[:, [1, 2, 2]]
    gaps = np.abs(first - second) / np.maximum(np.abs(first), np.abs(second))
    return gaps.min(axis=1)


def inside(eigs, tau):
    try:
        pumping._check_sector(eigs, tau)
    except SpectrumOutsideContour:
        return False
    return True


def merge_rates(relax, pump):
    """Rates of the sweep's range where two eigenvalues merge, located by
    bisection on whether ``eigvals`` finds a complex pair."""
    def paired(rate):
        eig = np.linalg.eigvals(relax + rate * pump)
        return np.abs(eig.imag).max() > 1e-7 * np.abs(eig).max()

    grid = SWEEP[1:]
    flags = [paired(r) for r in grid]
    found = []
    for i in np.nonzero(np.diff(flags))[0]:
        lo, hi = grid[i], grid[i + 1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if paired(mid) == flags[i] else (lo, mid)
        found.append(lo)
    return found


@st.composite
def blocks(draw):
    """``(relax, pump)`` of a valid material: lifetimes, branching on the
    simplex, a spin rate (relaxation plus TLS fill) and its thermal split."""
    t1 = 10.0 ** draw(st.floats(-5.0, 0.0))
    t_short = t1 * 10.0 ** draw(st.floats(-2.0, 3.0))
    beta_zeeman = draw(st.floats(0.0, 1.0))
    beta_shf = draw(st.floats(0.0, 1.0)) * (1.0 - beta_zeeman)
    params = a.MaterialParams(t1_opt=t1, t_short=t_short, beta_zeeman=beta_zeeman,
                              beta_shf=beta_shf)
    spin_rate = 10.0 ** draw(st.floats(-3.0, 6.0))
    return pumping._rate_matrices(params, spin_rate, draw(st.floats(0.0, 0.5)))


@st.composite
def near_edge_blocks(draw):
    """Blocks near the widest angle of valid materials: nearly all decays into
    the superhyperfine shelf, which empties at about 1.5/T1, a slow spin
    channel, and pump rates around 0.5/T1."""
    t1 = 10.0 ** draw(st.floats(-4.0, -1.0))
    params = a.MaterialParams(t1_opt=t1, t_short=t1 / draw(st.floats(1.2, 1.8)),
                              beta_zeeman=draw(st.floats(0.0, 0.02)),
                              beta_shf=draw(st.floats(0.97, 0.98)))
    relax, pump = pumping._rate_matrices(params, draw(st.floats(1e-3, 1.0)),
                                         draw(st.floats(0.0, 0.5)))
    return relax, pump, np.linspace(0.3, 0.8, 51) / t1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(blocks())
def test_closed_form_matches_eigvals_over_the_rate_sweep(block):
    relax, pump = block
    got, want = pumping._block_spectrum(relax, pump, SWEEP), reference(relax, pump, SWEEP)
    err = mismatch(got, want)
    assert np.all(err[separation(want) >= SEPARATED] <= ROOT_BOUND)
    assert np.all(err <= COINCIDENT_BOUND)
    for tau in TAUS:
        assert inside(got, tau) == inside(want, tau)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(near_edge_blocks())
def test_closed_form_matches_eigvals_near_the_widest_angle(case):
    relax, pump, rates = case
    got, want = pumping._block_spectrum(relax, pump, rates), reference(relax, pump, rates)
    assert np.max(mismatch(got, want)) <= ROOT_BOUND
    angle = np.degrees(np.max(np.abs(np.arctan2(want.imag, -want.real))))
    assert 19.0 < angle < 22.8
    for tau in TAUS:
        assert inside(got, tau) and inside(want, tau)


@pytest.mark.parametrize("spin_rate, beta_zeeman, beta_shf, t_short", [
    (1e3, 0.9, 0.05, 0.06), (0.1, 0.4, 0.1, 1.4e-3), (1e-2, 0.0, 0.97, 1.4e-3)])
def test_closed_form_at_merging_roots(spin_rate, beta_zeeman, beta_shf, t_short):
    params = a.MaterialParams(beta_zeeman=beta_zeeman, beta_shf=beta_shf, t_short=t_short)
    relax, pump = pumping._rate_matrices(params, spin_rate, 0.3)
    rates = merge_rates(relax, pump)
    assert rates
    for rate in rates:
        for offset, bound in ((0.0, MERGE_BOUND), (1e-4, ROOT_BOUND), (-1e-4, ROOT_BOUND)):
            r = np.array([rate * (1.0 + offset)])
            got, want = pumping._block_spectrum(relax, pump, r), reference(relax, pump, r)
            assert mismatch(got, want)[0] <= bound
            for tau in TAUS:
                assert inside(got, tau) == inside(want, tau)


@pytest.mark.parametrize("cycle", [[0, 3, 1], [0, 3, 2], [0, 3, 2, 1]],
                         ids=["g-e-z", "g-e-h", "g-e-h-z"])
def test_closed_form_verdict_on_cyclic_flows(cycle):
    # a cycle of equal rates has eigenvalues 30 or 45 degrees off the negative
    # real axis: inside the guard region for a short tau, outside it for a long one
    relax = np.zeros((4, 4))
    for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
        relax[dst, src] += 1e3
        relax[src, src] -= 1e3
    pump = np.zeros((4, 4))
    pump[0, 0], pump[3, 0], pump[0, 3], pump[3, 3] = -1.0, 1.0, 1.0, -1.0
    rates = np.array([0.0, 1.0, 30.0])
    got, want = pumping._block_spectrum(relax, pump, rates), reference(relax, pump, rates)
    assert np.max(mismatch(got, want)) <= ROOT_BOUND
    verdicts = [inside(want, tau) for tau in (1e-5, 1e-3, 1e-2, 1e-1)]
    assert [inside(got, tau) for tau in (1e-5, 1e-3, 1e-2, 1e-1)] == verdicts
    assert verdicts[0] and not verdicts[-1]


def test_diffusive_evolve_calls_no_eigvals(monkeypatch):
    # the guard is closed-form: a per-block LAPACK eigenvalue call coming
    # back would cost about a fifth of a comb burn
    def refuse(*args, **kwargs):
        raise AssertionError("evolve called np.linalg.eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    p = a.MaterialParams()
    g = a.make_grid(240e6, 260e6, 1e6)
    seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.05, power=2e-5,
                                width=5e6, dark_after=0.1)
    states = a.evolve(a.init_equilibrium_state(g, p), seq, p, TlsParams(), [0.05, 0.15])
    assert len(states) == 2
