import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import afcsim as a
from afcsim.errors import (
    InvalidBounds,
    MaxIterations,
    NonPositiveInput,
    NonPositiveTemperature,
    SingularJacobian,
)
from afcsim.fitting import ParametricModel, load_curve_csv


def central_fd_jacobian(model, params, x, rel=1e-6):
    """Independent finite-difference oracle for model Jacobians."""
    params = np.asarray(params, dtype=float)
    cols = []
    for i in range(params.size):
        h = rel * max(abs(params[i]), 1e-30)
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        cols.append((model.evaluate(up, x) - model.evaluate(dn, x)) / (2 * h))
    return np.stack(cols, axis=1)


class TestEngine:
    def test_exact_data_converges_immediately(self):
        model = a.model_double_exponential()
        truth = np.array([0.6, 0.06, 0.4, 1.0])
        t = np.geomspace(0.01, 5, 25)
        y = model.evaluate(truth, t)
        res = a.fit_curve(model, t, y, init=truth)
        assert res.converged
        assert res.iterations <= 2
        assert res.residual_norm < 1e-12

    def test_noisy_double_exp_recovery(self):
        # 5% multiplicative noise on 30 log-spaced points: the local
        # Cramer-Rao bound for t_short in this design is 7.8% relative, so
        # the acceptance windows sit at roughly 2.5 sigma per parameter
        model = a.model_double_exponential()
        truth = np.array([0.6, 0.06, 0.4, 1.0])
        t = np.geomspace(0.005, 5, 30)
        y0 = model.evaluate(truth, t)
        ok = 0
        for child in np.random.SeedSequence(77).spawn(100):
            rng = np.random.default_rng(child)
            y = y0 * (1 + 0.05 * rng.standard_normal(t.size))
            try:
                res = a.fit_curve(model, t, np.maximum(y, 1e-6), sigma=0.05 * y0)
            except (MaxIterations, SingularJacobian):
                continue
            if not res.converged:
                continue
            if (abs(res["t_short"] / truth[1] - 1) < 0.20
                    and abs(res["t_long"] / truth[3] - 1) < 0.05
                    and abs(res["a_short"] / truth[0] - 1) < 0.10
                    and abs(res["a_long"] / truth[2] - 1) < 0.10):
                ok += 1
        assert ok >= 95

    def test_insufficient_points(self):
        model = a.model_double_exponential()
        with pytest.raises(NonPositiveInput):
            a.fit_curve(model, np.array([1.0, 2.0]), np.array([1.0, 0.5]))

    def test_invalid_bounds(self):
        model = a.model_lorentzian_dip()
        x = np.linspace(-1, 1, 50)
        y = model.evaluate(np.array([2.0, 1.0, 0.0, 0.3]), x)
        with pytest.raises(InvalidBounds):
            a.fit_curve(model, x, y, init=np.array([2.0, 1.0, 0.0, 0.3]),
                        bounds=(np.array([0, 0, 0, 1.0]),
                                np.array([np.inf] * 4)))
        # bounds of the wrong length (they escaped as numpy's broadcast error)
        short = (np.zeros(3), np.full(3, np.inf))
        with pytest.raises(InvalidBounds, match="bounds"):
            a.fit_curve(model, x, y, bounds=short)
        with pytest.raises(InvalidBounds, match="bounds"):
            a.fit_curves(model, np.stack([x, x]), np.stack([y, y]), bounds=short)

    def test_singular_jacobian_dead_parameter(self):
        dead = ParametricModel(
            param_names=("a", "b"),
            evaluate=lambda p, x: p[0] * x,
            jacobian=lambda p, x: np.stack([x, np.zeros_like(x)], axis=1))
        x = np.linspace(0, 1, 10)
        with pytest.raises(SingularJacobian):
            a.fit_curve(dead, x, 2.0 * x, init=np.array([1.0, 1.0]))

    def test_bad_sigma(self):
        model = a.model_lorentzian_dip()
        x = np.linspace(-1, 1, 20)
        y = model.evaluate(np.array([2.0, 1.0, 0.0, 0.3]), x)
        with pytest.raises(NonPositiveInput):
            a.fit_curve(model, x, y, sigma=np.zeros_like(y))
        # a sigma that does not broadcast to y (it escaped as numpy's error)
        with pytest.raises(NonPositiveInput, match="sigma"):
            a.fit_curve(model, x, y, sigma=np.ones(5))
        with pytest.raises(NonPositiveInput, match="sigma"):
            a.fit_curves(model, np.stack([x, x]), np.stack([y, y]), sigma=np.ones((3, 1)))

    def test_empty_batch(self):
        # it escaped as np.stack's "need at least one array to stack"
        model = a.model_lorentzian_dip()
        with pytest.raises(NonPositiveInput, match="at least one curve"):
            a.fit_curves(model, np.linspace(-1, 1, 20), np.empty((0, 20)))

    @pytest.mark.parametrize("name", ["x", "y", "sigma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_the_array(self, name, bad):
        # a NaN in y used to end as max_damping with a NaN residual, a NaN
        # sigma as a non-finite Jacobian, and an inf in x in a RuntimeWarning
        model = a.model_lorentzian_dip()
        x = np.linspace(-1, 1, 20)
        clean = {"x": x, "y": model.evaluate(np.array([2.0, 1.0, 0.0, 0.3]), x),
                 "sigma": np.full(x.size, 0.1)}
        spoiled = dict(clean, **{name: clean[name].copy()})
        spoiled[name][7] = bad
        with pytest.raises(NonPositiveInput, match=f"^{name} must be finite"):
            a.fit_curve(model, **spoiled)
        # in a batch, only the second row is spoiled
        batch = {k: np.stack([clean[k], spoiled[k]]) for k in clean}
        with pytest.raises(NonPositiveInput, match=f"^{name} must be finite"):
            a.fit_curves(model, **batch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_names_init(self, bad):
        # a NaN start used to be reported as a non-finite Jacobian
        model = a.model_lorentzian_dip()
        x = np.linspace(-1, 1, 20)
        truth = np.array([2.0, 1.0, 0.0, 0.3])
        y = model.evaluate(truth, x)
        spoiled = truth.copy()
        spoiled[2] = bad
        with pytest.raises(InvalidBounds, match="^init must be finite"):
            a.fit_curve(model, x, y, init=spoiled)
        with pytest.raises(InvalidBounds, match="^init must be finite"):
            a.fit_curves(model, np.stack([x, x]), np.stack([y, y]),
                         init=np.stack([truth, spoiled]))

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_bound_names_bounds(self, side):
        # a NaN bound passed both bound checks and the fit ended as max_damping
        model = a.model_lorentzian_dip()
        x = np.linspace(-1, 1, 20)
        y = model.evaluate(np.array([2.0, 1.0, 0.0, 0.3]), x)
        bounds = [np.array(b, dtype=float) for b in model.bounds]
        bounds[side][2] = np.nan
        with pytest.raises(InvalidBounds, match="^bounds must not be NaN"):
            a.fit_curve(model, x, y, bounds=tuple(bounds))
        with pytest.raises(InvalidBounds, match="^bounds must not be NaN"):
            a.fit_curves(model, np.stack([x, x]), np.stack([y, y]), bounds=tuple(bounds))
        # infinite bounds, as the model's own, stay legal
        assert a.fit_curve(model, x, y, bounds=model.bounds).converged

    def test_residual_trace_nonincreasing(self):
        model = a.model_double_exponential()
        truth = np.array([0.6, 0.06, 0.4, 1.0])
        t = np.geomspace(0.005, 5, 40)
        rng = np.random.default_rng(5)
        y = model.evaluate(truth, t) * (1 + 0.03 * rng.standard_normal(t.size))
        res = a.fit_curve(model, t, y)
        trace = np.array(res.residual_trace)
        assert np.all(np.diff(trace) <= 1e-15)

    def test_invariant_under_point_reordering(self):
        model = a.model_lorentzian_dip()
        truth = np.array([2.0, 1.2, 3.0, 4.0])
        x = np.linspace(-20, 20, 81)
        rng = np.random.default_rng(3)
        y = model.evaluate(truth, x) + 0.01 * rng.standard_normal(x.size)
        perm = rng.permutation(x.size)
        init = np.array([1.9, 1.0, 2.5, 5.0])
        r1 = a.fit_curve(model, x, y, init=init)
        r2 = a.fit_curve(model, x[perm], y[perm], init=init)
        assert np.allclose(r1.params, r2.params, rtol=1e-9, atol=1e-12)

    def test_sigma_rescaling(self):
        model = a.model_lorentzian_dip()
        truth = np.array([2.0, 1.2, 3.0, 4.0])
        x = np.linspace(-20, 20, 81)
        rng = np.random.default_rng(4)
        y = model.evaluate(truth, x) + 0.01 * rng.standard_normal(x.size)
        sigma = np.full(x.size, 0.01)
        init = np.array([1.9, 1.0, 2.5, 5.0])
        r1 = a.fit_curve(model, x, y, sigma=sigma, init=init)
        r2 = a.fit_curve(model, x, y, sigma=5.0 * sigma, init=init)
        assert np.allclose(r1.params, r2.params, rtol=1e-9)
        assert np.allclose(r2.std_errors, 5.0 * r1.std_errors, rtol=1e-6)

    def test_batch_of_a_single_curve_model_raises_named_error(self):
        # the ordered-lifetimes transform unpacks one curve's parameters, and
        # the flip-flop model's rate takes one curve's (Gamma_s, gamma_s)
        t = np.geomspace(0.01, 5.0, 20)
        decays = np.stack([np.exp(-t / 0.1) + np.exp(-t / 2.0),
                           2.0 * np.exp(-t / 0.1) + np.exp(-t / 3.0)])
        b = np.array([0.035, 0.06, 0.08])
        rates = np.array([[1.0, 1 / 1.36, 1 / 2.44], [1.1, 0.7, 0.4]])
        for model, x, y, names in (
                (a.model_double_exponential(), t, decays, "a_short, t_short, a_long, t_long"),
                (a.model_flipflop_field(), b, rates, "gamma_spin_static, gamma_spin_slope")):
            with pytest.raises(NonPositiveInput, match=rf"^the model \({names}\) .* does not "
                                                       "broadcast over a batch"):
                a.fit_curves(model, x, y)


class TestModels:
    def test_double_exp_values(self):
        model = a.model_double_exponential()
        p = np.array([0.6, 0.06, 0.4, 1.0])
        assert model.evaluate(p, np.array([0.0]))[0] == pytest.approx(1.0)
        assert model.evaluate(p, np.array([1.0]))[0] == pytest.approx(0.1472, abs=1e-4)

    def test_double_exp_single_component_limit(self):
        model = a.model_double_exponential()
        p = np.array([0.0, 0.06, 0.7, 1.0])
        t = np.geomspace(0.01, 5, 20)
        assert np.allclose(model.evaluate(p, t), 0.7 * np.exp(-t))

    def test_lorentzian_dip_values(self):
        model = a.model_lorentzian_dip()
        p = np.array([2.0, 1.0, 5.0, 2.0])
        assert model.evaluate(p, np.array([5.0]))[0] == pytest.approx(1.0)
        assert model.evaluate(p, np.array([6.0]))[0] == pytest.approx(1.5)
        assert model.evaluate(p, np.array([4.0]))[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("terms", [1, 2])
    def test_lorentzian_dip_takes_a_scalar_abscissa(self, terms):
        # what a one-sample array gets, with a scalar value for a scalar nu
        model = a.model_lorentzian_dip(terms)
        p = np.array([2.0, 0.1, 1.0, 5.0, 2.0] if terms == 2 else [2.0, 1.0, 5.0, 2.0])
        one = np.array([5.5])
        value = model.evaluate(p, 5.5)
        assert np.ndim(value) == 0 and value == model.evaluate(p, one)[0]
        assert np.array_equal(model.jacobian(p, 5.5), model.jacobian(p, one)[0])
        assert np.array_equal(model.curvature(p, 5.5, 0.3),
                              model.curvature(p, one, np.array([0.3])))

    def test_lorentzian_dip_roundtrip_exact(self):
        model = a.model_lorentzian_dip()
        truth = np.array([2.0, 1.2, 3.0, 4.0])
        x = np.linspace(-30, 30, 161)
        y = model.evaluate(truth, x)
        res = a.fit_curve(model, x, y, init=np.array([1.8, 0.9, 2.0, 6.0]))
        assert res.converged
        assert np.allclose(res.params, truth, rtol=1e-9)

    def test_sloped_dip_from_its_own_guess(self):
        # the baseline rises by 0.36 across the window, more than the dip's
        # 0.2 depth, so the lowest sample is at the window's edge; a guess
        # taken there ends on a wrong minimum
        model = a.model_lorentzian_dip(2)
        truth = np.array([0.805, 0.045, 0.200, 0.449, 1.174])
        x = np.linspace(-4.0, 4.0, 81)
        res = a.fit_curve(model, x, model.evaluate(truth, x))
        assert res.converged
        assert np.allclose(res.params, truth, rtol=1e-6, atol=0.0)

    def test_flipflop_model_matches_lifetime(self):
        model = a.model_flipflop_field(alpha=1e9, g_factor=15.13, temperature=0.7)
        p = a.MaterialParams()
        for b in (0.035, 0.06, 0.08):
            rate = model.evaluate(np.array([0.4e9, 14.5e9]), np.array([b]))[0]
            assert rate == pytest.approx(1.0 / a.flipflop_lifetime(b, 0.7, p),
                                         rel=1e-12)

    def test_flipflop_fit_three_points(self):
        # the three measured fields and long lifetimes
        model = a.model_flipflop_field(alpha=1e9, g_factor=15.13, temperature=0.7)
        b = np.array([0.035, 0.06, 0.08])
        rates = np.array([1 / 1.00, 1 / 1.36, 1 / 2.44])
        res = a.fit_curve(model, b, rates)
        assert res.converged
        assert 0.2e9 <= res["gamma_spin_static"] <= 0.6e9
        assert 8.5e9 <= res["gamma_spin_slope"] <= 20.5e9
        # forward evaluation at the fitted parameters
        rate_350 = model.evaluate(res.params, np.array([0.035]))[0]
        assert abs(rate_350 - 1.0) <= 0.25

    def test_flipflop_zero_slope_monotone(self):
        model = a.model_flipflop_field()
        b = np.linspace(0.0, 0.5, 30)
        vals = model.evaluate(np.array([0.4e9, 0.0]), b)
        assert np.all(np.diff(vals) < 0)

    def test_flipflop_bad_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            a.model_flipflop_field(temperature=-1.0)

    @pytest.mark.parametrize("terms", [0, 3])
    def test_dip_baseline_terms_outside_one_or_two_rejected(self, terms):
        with pytest.raises(NonPositiveInput):
            a.model_lorentzian_dip(terms)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(100):
            cases.append((a.model_double_exponential(),
                          np.array([rng.uniform(0.1, 2), rng.uniform(0.01, 0.2),
                                    rng.uniform(0.1, 2), rng.uniform(0.5, 5)]),
                          np.geomspace(0.01, 5, 17)))
        for model, params, x in cases:
            jac = model.jacobian(params, x)
            ref = central_fd_jacobian(model, params, x)
            col_scale = np.maximum(np.abs(ref).max(axis=0), 1e-30)
            assert np.max(np.abs(jac - ref) / col_scale) < 1e-5

        for _ in range(100):
            params = np.array([rng.uniform(0.5, 3), rng.uniform(0.1, 2),
                               rng.uniform(-10, 10), rng.uniform(1, 8)])
            x = np.linspace(-30, 30, 41)
            # both baseline forms; the slope comes from the drawn center
            # (within +-0.1 per unit x), so the draws below stay as they were
            for model, p in ((a.model_lorentzian_dip(), params),
                             (a.model_lorentzian_dip(2), np.insert(params, 1, params[2] / 100.0))):
                jac = model.jacobian(p, x)
                ref = central_fd_jacobian(model, p, x)
                scale = max(np.abs(ref).max(), 1e-8)
                assert np.max(np.abs(jac - ref)) / scale < 1e-5

        model = a.model_flipflop_field()
        for _ in range(100):
            params = np.array([rng.uniform(0.1e9, 1e9), rng.uniform(1e9, 3e10)])
            x = np.linspace(0.01, 0.5, 13)
            jac = model.jacobian(params, x)
            ref = central_fd_jacobian(model, params, x)
            scale = np.abs(ref).max()
            assert np.max(np.abs(jac - ref)) / scale < 1e-5


class TestCsvIngestion:
    def test_with_header_and_sigma(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,sigma\n1,2.0,0.1\n2,1.5,0.1\n3,1.1,0.2\n")
        x, y, s = load_curve_csv(path)
        assert np.allclose(x, [1, 2, 3])
        assert np.allclose(y, [2.0, 1.5, 1.1])
        assert np.allclose(s, [0.1, 0.1, 0.2])

    def test_headerless_two_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2.0\n2,1.5\n")
        x, y, s = load_curve_csv(path)
        assert s is None
        assert np.allclose(y, [2.0, 1.5])

    def test_inline_text(self):
        x, y, s = load_curve_csv("x,y\n0,1\n1,0.5\n")
        assert np.allclose(x, [0, 1])

    @pytest.mark.parametrize("text, line", [
        ("x,y\n1,2\n3,abc\n", 3),
        ("1,2\n\n3\n", 3),
        ("1,2\n3,4,5\n", 2),
        ("x,y\n1,nan\n", 2),
        ("1,2\n2,inf\n", 2),
        ("1,2,0.1\n2,3,-inf\n", 2),
    ])
    def test_malformed_line_is_named(self, text, line):
        with pytest.raises(NonPositiveInput, match=f"CSV line {line} "):
            load_curve_csv(text)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda width: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=width, max_size=width), min_size=1, max_size=20)))
    def test_reads_generated_rows_exactly(self, rows):
        text = "x,y,sigma\n" + "".join(",".join(repr(v) for v in row) + "\n"
                                         for row in rows)
        x, y, sigma = load_curve_csv(text)
        data = np.array(rows)
        assert np.array_equal(x, data[:, 0]) and np.array_equal(y, data[:, 1])
        if data.shape[1] == 3:
            assert np.array_equal(sigma, data[:, 2])
        else:
            assert sigma is None
