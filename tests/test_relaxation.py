import numpy as np
import pytest

import afcsim as a
from afcsim.errors import (
    DegenerateModel,
    NegativeField,
    NonPositiveInput,
    NonPositiveTemperature,
)
from afcsim.relaxation import TlsParams


class TestFlipflopLifetime:
    def test_zero_field_static_limit(self):
        # sech(0) = 1, so the rate is alpha / Gamma_s = 2.5 per second
        p = a.MaterialParams()
        assert a.flipflop_lifetime(0.0, 0.7, p) == pytest.approx(0.4)

    def test_350g(self):
        p = a.MaterialParams()
        assert a.flipflop_lifetime(0.035, 0.7, p) == pytest.approx(0.97, abs=0.02)

    def test_800g(self):
        p = a.MaterialParams()
        assert a.flipflop_lifetime(0.08, 0.7, p) == pytest.approx(2.15, abs=0.05)

    def test_measured_lifetimes_within_quarter(self):
        # measured long decays at 350/600/800 G
        p = a.MaterialParams()
        measured = {0.035: 1.00, 0.06: 1.36, 0.08: 2.44}
        for b, t_meas in measured.items():
            t = a.flipflop_lifetime(b, 0.7, p)
            assert abs(1.0 / t - 1.0 / t_meas) <= 0.25 * (1.0 / t_meas)

    def test_monotone_in_field_above_turnover(self):
        p = a.MaterialParams()
        fields = np.linspace(0.03, 0.5, 60)
        vals = [a.flipflop_lifetime(b, 0.7, p) for b in fields]
        assert np.all(np.diff(vals) > 0)

    def test_decreasing_in_temperature(self):
        p = a.MaterialParams()
        temps = np.linspace(0.3, 4.0, 40)
        vals = [a.flipflop_lifetime(0.1, t, p) for t in temps]
        assert np.all(np.diff(vals) < 0)

    def test_errors(self):
        p = a.MaterialParams()
        with pytest.raises(NonPositiveTemperature):
            a.flipflop_lifetime(0.1, 0.0, p)
        with pytest.raises(NegativeField):
            a.flipflop_lifetime(-0.1, 0.7, p)
        with pytest.raises(DegenerateModel):
            a.flipflop_lifetime(0.0, 0.7, p.with_(gamma_spin_static=0.0))


class TestIsdBroadening:
    def test_zero(self):
        assert a.isd_broadening(0.0, 2e-13) == 0.0

    def test_khz_scale(self):
        assert a.isd_broadening(5e15, 2e-13) == pytest.approx(1e3)

    def test_full_inversion_bound(self):
        assert a.isd_broadening(3.6e19, 2e-13) == pytest.approx(7.2e6)

    def test_linear(self):
        base = a.isd_broadening(1e15, 2e-13)
        assert a.isd_broadening(7e15, 2e-13) == pytest.approx(7 * base, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(NonPositiveInput):
            a.isd_broadening(-1.0, 2e-13)


class TestTlsFillRate:
    def test_dark(self):
        assert a.tls_fill_rate(0.0, TlsParams()) == 0.0

    def test_disabled(self):
        assert a.tls_fill_rate(1e-3, TlsParams.disabled()) == 0.0

    def test_linear(self):
        tls = TlsParams(kappa_fill=5e4, kappa_diff=0.0)
        assert a.tls_fill_rate(2e-4, tls) == pytest.approx(10.0)
        assert a.tls_fill_rate(4e-4, tls) == pytest.approx(2 * a.tls_fill_rate(2e-4, tls))

    def test_negative_coefficients_rejected(self):
        with pytest.raises(NonPositiveInput):
            TlsParams(kappa_fill=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["kappa_fill", "kappa_diff"])
    def test_non_finite_coefficients_rejected_by_name(self, name, bad):
        # kappa_diff = nan used to switch diffusion off quietly: nan > 0 is false
        with pytest.raises(NonPositiveInput, match=name):
            TlsParams(**{name: bad})
