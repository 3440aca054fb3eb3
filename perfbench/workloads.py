"""The benchmark's workloads: inputs made from a seed, the unit calls of one
pass, and the check on every output.

Every check compares against a computation made here, apart from the program:
closed-form lifetimes (``closedform``), the generating parameters of synthetic curves, or the
exact propagator in ``reference``.  None compares against a stored copy of the
program's output.

Program functions are always looked up as module attributes at call time
(``readout.measure_hole``, not a name bound at import), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from afcsim import core, experiments, fitting, pumping, readout

import closedform

# A readout averages ``repeats`` sweeps with relative noise ``noise_rel`` (the
# noisy fig2 setting), so one spectrum resolves optical depth to
# noise_rel / sqrt(repeats) of the peak OD.  A population error moves a bin's
# OD by at most peak_od times itself, so population errors below this share
# cannot be resolved by the readout; that is the tolerance of the exact
# propagator check.
READOUT_NOISE_REL = 0.02
READOUT_REPEATS = 20
READOUT_RESOLUTION = READOUT_NOISE_REL / np.sqrt(READOUT_REPEATS)
POPULATION_TOL = READOUT_RESOLUTION

# fig2 lifetimes must land within this share of their closed-form values
LIFETIME_TOL = 0.05
# metrology estimates must land within this many reported sigmas
Z_MAX = 5.0


def flipflop_tolerance(b_fields, params, rel=LIFETIME_TOL):
    """Relative shift of (Gamma_s, gamma_s) that lifetime errors of up to
    ``rel`` at each field can cause, to first order and for the worst sign
    pattern, in the unweighted least-squares fit of the rates."""
    b = np.asarray(b_fields, dtype=float)
    theta = np.array([params.gamma_spin_static, params.gamma_spin_slope])
    width = theta[0] + theta[1] * b
    rate = closedform.flipflop_rate(b, params)
    jac = np.stack([-rate / width, -rate * b / width], axis=1)
    worst = np.abs(np.linalg.pinv(jac)) @ (rel * rate)
    return worst / theta


class Workload:
    """One benchmark workload.

    ``ops()`` lists the unit calls of one pass as ``(kind, call)`` pairs;
    ``check(kind, output)`` returns the problems found in one call's output
    (empty when it is right) and runs outside the timed window.
    ``reference_check()`` runs once per run, after the passes, and returns
    ``(max_pop_err, problems)`` or ``None``.
    """

    name = ""

    def __init__(self, seed: int, outdir: Path):
        self.outdir = Path(outdir)
        self.bytes_written = []

    def ops(self):
        raise NotImplementedError

    def check(self, kind, output):
        raise NotImplementedError

    def reference_check(self):
        return None

    def _collect_artifacts(self) -> dict:
        """Read and delete what the last call wrote into the artifact dir."""
        files = {}
        for path in sorted(self.outdir.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        self.bytes_written.append(sum(len(b) for b in files.values()))
        return files


def _max_population_error(state, seq, params, tls, record_times):
    """Largest |evolve - exact| over bins, levels and record times."""
    # imported here so that scipy.sparse stays out of the measured set-up
    import reference

    states = pumping.evolve(state, seq, params, tls, record_times)
    exact = reference.propagate(state, seq, params, tls, record_times,
                                pumping.pump_rate_profile)
    return float(np.max(np.abs(reference.populations(states) - exact)))


def _population_problems(err):
    if not err <= POPULATION_TOL:
        return [f"population error {err:.3g} against the exact propagator "
                f"exceeds {POPULATION_TOL:.3g}"]
    return []


class DecayFig2(Workload):
    """``experiments.run_fig2`` on the default config, writing artifacts."""

    name = "decay_fig2"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.config = experiments.default_config()
        self.config.seed = seed
        self.config.outdir = str(self.outdir)
        cfg = self.config.fig2
        self.params = self.config.material.with_(beta_zeeman=cfg.beta_zeeman,
                                                 beta_shf=cfg.beta_shf)
        self.first_csvs = None

    def ops(self):
        return [("run_fig2", lambda: experiments.run_fig2(self.config))]

    def check(self, kind, summary):
        cfg = self.config.fig2
        files = self._collect_artifacts()
        problems = []
        for field_g, t_s, t_l in zip(cfg.fields_gauss, summary["t_short_fitted_s"],
                                     summary["t_long_fitted_s"]):
            if t_s is None or t_l is None:
                reason = summary["double_exp_fits"][str(field_g)]["stop_reason"]
                problems.append(f"{field_g} G: decay fit not converged ({reason})")
                continue
            want_long = 1.0 / closedform.flipflop_rate(field_g * 1e-4, self.params)
            if abs(t_l / want_long - 1.0) > LIFETIME_TOL:
                problems.append(f"{field_g} G: t_long {t_l:.4g} s, closed form "
                                f"{want_long:.4g} s")
            if abs(t_s / self.params.t_short - 1.0) > LIFETIME_TOL:
                problems.append(f"{field_g} G: t_short {t_s:.4g} s, input "
                                f"{self.params.t_short:.4g} s")
        ff = summary["flipflop_fit"]
        if ff is None or not ff["converged"]:
            problems.append(f"flip-flop fit missing or not converged: {ff}")
        else:
            used = np.array(summary["flipflop_fields_gauss"]) * 1e-4
            tol = flipflop_tolerance(used, self.params)
            got = (ff["params"]["gamma_spin_static"], ff["params"]["gamma_spin_slope"])
            want = (self.params.gamma_spin_static, self.params.gamma_spin_slope)
            for name, g, w, t in zip(("Gamma_s", "gamma_s"), got, want, tol):
                if abs(g / w - 1.0) > t:
                    problems.append(f"flip-flop {name} {g:.4g}, input {w:.4g} "
                                    f"(tolerance {t:.2%})")
        csvs = {k: v for k, v in files.items() if k.endswith(".csv")}
        if not csvs:
            problems.append("run_fig2 wrote no CSV")
        if self.first_csvs is None:
            self.first_csvs = csvs
        elif csvs != self.first_csvs:
            problems.append("CSV bytes differ between two calls with the same seed")
        return problems

    def reference_check(self):
        """``evolve`` on the lowest field's burn-and-wait, at every delay."""
        cfg = self.config.fig2
        params = self.params.with_(b_field=min(cfg.fields_gauss) * 1e-4)
        delays = np.geomspace(cfg.delay_min, cfg.delay_max, cfg.n_delays)
        grid = core.make_grid(cfg.detuning - cfg.span, cfg.detuning + cfg.span,
                              self.config.bin_width)
        state = core.init_equilibrium_state(grid, params)
        seq = pumping.build_hole_sequence(
            detuning=cfg.detuning, burn_duration=cfg.burn_duration,
            power=cfg.burn_power, width=cfg.hole_width,
            dark_after=float(delays[-1]) * 1.0001 + 1e-6)
        record = [cfg.burn_duration + d for d in delays]
        err = _max_population_error(state, seq, params, self.config.tls, record)
        return err, _population_problems(err)


class CombFig4(Workload):
    """``experiments.run_fig4`` with TLS on over a narrow and a wide comb.

    0.2 GHz (1,000 bins) is bound by the integrator's step count and 3.2 GHz
    (7,000 bins) by the bin count, so fewer steps and fewer bins each show on
    a different end of the sweep.
    """

    name = "comb_fig4"
    bandwidths_ghz = (0.2, 3.2)

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.config = experiments.default_config()
        self.config.seed = seed
        self.config.outdir = str(self.outdir)
        self.config.fig4.bandwidths_ghz = self.bandwidths_ghz
        self.config.fig4.tls_enabled = True

    def ops(self):
        return [("run_fig4", lambda: experiments.run_fig4(self.config))]

    def check(self, kind, summary):
        self._collect_artifacts()
        problems = []
        d0 = np.array(summary["d0"])
        d_peak = np.array(summary["d_peak"])
        fwhm = np.array(summary["tooth_fwhm_hz"])
        if list(summary["bandwidths_ghz"]) != list(self.bandwidths_ghz):
            problems.append(f"bandwidths {summary['bandwidths_ghz']}")
        if np.any(np.diff(d0) < 0):
            problems.append(f"d0 {d0.tolist()} decreases with bandwidth")
        if not np.all((d0 > 0) & (d0 < d_peak)):
            problems.append(f"d0 {d0.tolist()} not within (0, d_peak {d_peak.tolist()})")
        if not np.all(fwhm < self.config.fig4.spacing):
            problems.append(f"tooth FWHM {fwhm.tolist()} not below the spacing")
        return problems

    def reference_check(self):
        """``evolve`` on the narrowest comb's burn and wait, final state."""
        cfg = self.config.fig4
        params = self.config.material.with_(peak_od=cfg.peak_od)
        half = min(cfg.bandwidths_ghz) * 1e9 / 2.0
        grid = core.make_grid(-half - 150e6, half + 150e6, self.config.bin_width)
        state = core.init_equilibrium_state(grid, params)
        seq = pumping.build_afc_sequence(2.0 * half, cfg.spacing, cfg.pit_width,
                                         cfg.duration, cfg.total_power,
                                         dark_after=cfg.wait)
        err = _max_population_error(state, seq, params, self.config.tls,
                                    [seq.total_duration])
        return err, _population_problems(err)


def _periodic_lorentzian(nu, half_width, spacing):
    """Sum over k of h^2 / ((nu - k s)^2 + h^2), in closed form."""
    u = 2.0 * np.pi * half_width / spacing
    return (np.pi * half_width / spacing) * np.sinh(u) / (
        np.cosh(u) - np.cos(2.0 * np.pi * nu / spacing))


def _efficiency(d_peak, d0, fwhm, spacing):
    """Square-tooth forward-recall efficiency, written apart from
    ``readout.afc_efficiency``."""
    finesse = spacing / fwhm
    d_eff = (d_peak - d0) / finesse
    return d_eff ** 2 * np.exp(-d_eff) * np.exp(-7.0 / finesse ** 2) * np.exp(-d0)


def _z_problems(kind, names, got, want, sigma):
    problems = []
    for name, g, w, s in zip(names, got, want, sigma):
        if not (np.isfinite(g) and np.isfinite(s) and s > 0) \
                or abs(g - w) > Z_MAX * s:
            problems.append(f"{kind}: {name} {g:.6g} vs {w:.6g} (1 sigma {s:.3g})")
    return problems


class Metrology(Workload):
    """Fits on curves made here from known parameters, with no ``evolve``.

    One pass fits every curve of the round once; the round is drawn from the
    seed when the workload is built, so every pass repeats the same inputs.
    """

    name = "metrology"
    # a large round keeps the work of one pass nearly the same for every seed
    n_decay = 48
    n_hole = 48
    n_comb = 16
    n_flipflop = 48
    comb_spacing = 50e6

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        config = experiments.default_config()
        self.config = config
        rng = np.random.default_rng(seed)
        fig2 = config.fig2
        self.params = config.material
        self.delays = np.geomspace(fig2.delay_min, fig2.delay_max, fig2.n_delays)
        self.decays = [self._decay_curve(rng) for _ in range(self.n_decay)]
        self.hole_grid = core.make_grid(fig2.detuning - fig2.span / 2.0,
                                        fig2.detuning + fig2.span / 2.0,
                                        config.bin_width)
        self.holes = [self._hole_spectrum(rng) for _ in range(self.n_hole)]
        self.comb_grid = core.make_grid(-150e6, 150e6, config.bin_width)
        self.combs = [self._comb_spectrum(rng) for _ in range(self.n_comb)]
        self.ff_fields = np.linspace(0.03, 0.1, 8)
        self.flipflops = [self._flipflop_curve(rng) for _ in range(self.n_flipflop)]

    # -- inputs ------------------------------------------------------------

    def _decay_curve(self, rng):
        b = rng.uniform(0.035, 0.08)
        a_s, t_s = rng.uniform(0.5, 1.5), self.params.t_short * rng.uniform(0.8, 1.25)
        a_l, t_l = rng.uniform(0.5, 1.5), 1.0 / closedform.flipflop_rate(b, self.params)
        truth = np.array([a_s, t_s, a_l, t_l])
        clean = a_s * np.exp(-self.delays / t_s) + a_l * np.exp(-self.delays / t_l)
        sigma = 0.02 * clean
        return truth, clean + sigma * rng.standard_normal(clean.size), sigma

    def _hole_spectrum(self, rng):
        nu = self.hole_grid.centers
        ref = float(np.mean(nu))
        base, slope = rng.uniform(0.6, 1.0), rng.uniform(-1.0, 1.0) * 1e-9
        depth, fwhm = rng.uniform(0.15, 0.5), rng.uniform(20e6, 35e6)
        center = ref + rng.uniform(-3e6, 3e6)
        half = fwhm / 2.0
        clean = base + slope * (nu - ref) - depth * half ** 2 / ((nu - center) ** 2 + half ** 2)
        od = self._read(clean, rng)
        truth = (depth, fwhm, depth * (np.pi / 2.0) * fwhm)
        return truth, core.AbsorptionSpectrum(grid=self.hole_grid, od=od)

    def _comb_spectrum(self, rng):
        s = self.comb_spacing
        nu = self.comb_grid.centers
        half = rng.uniform(10e6, 16e6) / 2.0
        d_floor, d_peak = rng.uniform(0.1, 0.3), rng.uniform(0.55, 0.8)
        shape = _periodic_lorentzian(nu, half, s)
        top, bottom = _periodic_lorentzian(np.array([0.0, s / 2.0]), half, s)
        amp = (d_peak - d_floor) / top
        clean = d_floor + amp * shape
        od = self._read(clean, rng)
        # the half-contrast width of the periodic profile, in closed form
        level = (top + bottom) / 2.0
        u = 2.0 * np.pi * half / s
        cos_x = np.cosh(u) - (np.pi * half / s) * np.sinh(u) / level
        fwhm = 2.0 * np.arccos(cos_x) * s / (2.0 * np.pi)
        # trough level as analyze_comb defines it: the median over troughs,
        # away from zero detuning, of the mean OD within s/4 of the trough
        centers = (np.arange(-3, 3) + 0.5) * s
        centers = centers[np.abs(centers) > 0.9 * s]
        windows = [np.abs(nu - c) <= s / 4.0 for c in centers]
        d0 = float(np.median([clean[w].mean() for w in windows]))
        noise = READOUT_RESOLUTION * float(clean.max())
        dnu = self.comb_grid.bin_width
        # 1 sigma: one sample's noise for the tooth top, the window mean's
        # noise for d0, and one bin for a width interpolated between samples
        sigma = (noise, noise / np.sqrt(min(w.sum() for w in windows)), dnu)
        truth = (d_peak, d0, fwhm)
        return truth, sigma, core.AbsorptionSpectrum(grid=self.comb_grid, od=od)

    def _flipflop_curve(self, rng):
        base = self.params
        p = base.with_(gamma_spin_static=base.gamma_spin_static * rng.uniform(0.7, 1.4),
                       gamma_spin_slope=base.gamma_spin_slope * rng.uniform(0.7, 1.4))
        clean = closedform.flipflop_rate(self.ff_fields, p)
        sigma = 0.02 * clean
        truth = (p.gamma_spin_static, p.gamma_spin_slope)
        return truth, clean + sigma * rng.standard_normal(clean.size), sigma

    @staticmethod
    def _read(clean, rng):
        """Readout noise as ``simulate_readout`` adds it in the noisy fig2 setting."""
        scale = READOUT_RESOLUTION * max(float(clean.max()), 1e-12)
        return np.maximum(clean + scale * rng.standard_normal(clean.size), 0.0)

    # -- unit calls ----------------------------------------------------------

    def ops(self):
        dexp = fitting.model_double_exponential()
        ff_model = fitting.model_flipflop_field(alpha=self.params.alpha_ff,
                                                g_factor=self.params.g_factor,
                                                temperature=self.params.temperature)
        ops = []
        for truth, y, sigma in self.decays:
            ops.append(("decay", lambda y=y, sigma=sigma, truth=truth: (
                truth, fitting.fit_curve(dexp, self.delays, y, sigma=sigma))))
        guess = self.config.fig2.detuning
        for truth, spec in self.holes:
            ops.append(("hole", lambda truth=truth, spec=spec: (
                truth, readout.measure_hole(spec, guess))))
        for truth, sigma, spec in self.combs:
            ops.append(("comb", lambda truth=truth, sigma=sigma, spec=spec: (
                truth, sigma, self._comb_call(spec))))
        for truth, y, sigma in self.flipflops:
            ops.append(("flipflop", lambda y=y, sigma=sigma, truth=truth: (
                truth, fitting.fit_curve(ff_model, self.ff_fields, y, sigma=sigma))))
        return ops

    def _comb_call(self, spec):
        metrics = readout.analyze_comb(spec, self.comb_spacing)
        return metrics, readout.afc_efficiency(metrics)

    def check(self, kind, output):
        if kind in ("decay", "flipflop"):
            truth, res = output
            if not res.converged:
                return [f"{kind}: not converged ({res.stop_reason})"]
            return _z_problems(kind, res.param_names, res.params, truth, res.std_errors)
        if kind == "hole":
            truth, m = output
            return _z_problems(kind, ("depth", "fwhm", "area"),
                               (m.depth, m.fwhm, m.area), truth,
                               (m.depth_err, m.fwhm_err, m.area_err))
        truth, sigma, (m, eta) = output
        s = self.comb_spacing
        problems = _z_problems(kind, ("d_peak", "d0", "tooth_fwhm"),
                               (m.d_peak, m.d0, m.tooth_fwhm), truth, sigma)
        if not np.isclose(eta, _efficiency(m.d_peak, m.d0, m.tooth_fwhm, s),
                          rtol=1e-12, atol=0.0):
            problems.append(f"comb: afc_efficiency {eta:.6g} does not follow the formula")
        # efficiency from the generating values, with the three sigmas
        # propagated to first order
        want = _efficiency(*truth, s)
        grads = [(_efficiency(*(np.array(truth) + np.eye(3)[i] * 1e-3 * sigma[i]), s) - want)
                 / 1e-3 for i in range(3)]
        problems += _z_problems(kind, ("efficiency",), (eta,), (want,),
                                (float(np.sqrt(np.sum(np.square(grads)))),))
        return problems


WORKLOADS = {w.name: w for w in (DecayFig2, CombFig4, Metrology)}
