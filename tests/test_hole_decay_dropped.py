import numpy as np

import afcsim as a
from afcsim import readout
from afcsim.errors import FitDiverged
from afcsim.relaxation import TlsParams


def test_fit_diverged_delay_is_dropped(monkeypatch):
    p = a.MaterialParams(b_field=0.035)
    delays = [0.05, 0.2, 0.8]
    kwargs = dict(seed=3, burn_power=2e-6)
    clean = readout.hole_decay_experiment(0.035, delays, p, TlsParams.disabled(), **kwargs)

    real = readout.measure_hole
    calls = []

    def diverges_second_call(*args, **kw):
        calls.append(args)
        if len(calls) == 2:
            raise FitDiverged("hole fit did not converge (no_progress)")
        return real(*args, **kw)

    monkeypatch.setattr(readout, "measure_hole", diverges_second_call)
    curve = readout.hole_decay_experiment(0.035, delays, p, TlsParams.disabled(), **kwargs)
    assert len(calls) == 3
    assert list(curve.delays) == [0.05, 0.8]
    assert np.array_equal(curve.areas, clean.areas[[0, 2]])
    assert np.array_equal(curve.sigmas, clean.sigmas[[0, 2]])
    assert curve.dropped == ((0.2, "hole fit did not converge (no_progress)"),)
