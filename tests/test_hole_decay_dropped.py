from dataclasses import replace

import numpy as np

import afcsim as a
from afcsim import readout
from afcsim.relaxation import TlsParams


def test_fit_diverged_delay_is_dropped(monkeypatch):
    # the delays' hole fits run as one batch; the second row's fit is made to
    # stop short of convergence, so only that delay is dropped
    p = a.MaterialParams(b_field=0.035)
    delays = [0.05, 0.2, 0.8]
    kwargs = dict(seed=3, burn_power=2e-6)
    clean = readout.hole_decay_experiment(0.035, delays, p, TlsParams.disabled(), **kwargs)

    real = readout.fit_curves
    rows = []

    def diverges_second_row(*args, **kw):
        results = real(*args, **kw)
        rows.extend(results)
        results[1] = replace(results[1], converged=False, stop_reason="no_progress")
        return results

    monkeypatch.setattr(readout, "fit_curves", diverges_second_row)
    curve = readout.hole_decay_experiment(0.035, delays, p, TlsParams.disabled(), **kwargs)
    assert len(rows) == 3
    assert list(curve.delays) == [0.05, 0.8]
    assert np.array_equal(curve.areas, clean.areas[[0, 2]])
    assert np.array_equal(curve.sigmas, clean.sigmas[[0, 2]])
    assert curve.dropped == ((0.2, "hole fit did not converge (no_progress)"),)
