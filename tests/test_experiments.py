import hashlib
import json
import math
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import afcsim as a
import afcsim.experiments as ex
from afcsim import svgplot
from afcsim.cli import build_parser, main as cli_main
from afcsim.errors import CalibrationFailed, NoHoleFound, NonPositiveInput, UnsupportedFormat
from afcsim.readout import CombMetrics, DecayCurve, HoleMetrics
from afcsim.units import parse_quantity


class TestConfig:
    def test_dump_load_roundtrip(self):
        cfg = ex.default_config()
        text = ex.dump_config(cfg)
        clone = ex.load_config(text)
        assert clone == cfg
        assert ex.dump_config(clone) == text

    def test_overrides_applied(self):
        text = ex.dump_config(ex.default_config())
        text += "\n[material]\ntemperature = 1.4\n"
        cfg = ex.load_config(text)
        assert cfg.material.temperature == 1.4

    def test_unknown_section_rejected(self):
        with pytest.raises(NonPositiveInput):
            ex.load_config("[nonsense]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(NonPositiveInput):
            ex.load_config("[material]\ntypo_key = 1\n")

    def test_list_values_become_tuples(self):
        cfg = ex.load_config("[fig4]\nbandwidths_ghz = [0.2, 0.4]\n")
        assert cfg.fig4.bandwidths_ghz == (0.2, 0.4)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "config.toml"
        path.write_text(ex.dump_config(ex.default_config()))
        cfg = ex.load_config(path)
        assert cfg == ex.default_config()

    @pytest.mark.parametrize("value", ["0.7K", "warm"])
    def test_malformed_value_names_the_line(self, value):
        # "0.7K" is the unit-suffix style of the CLI flags; the file format
        # takes bare numbers only
        with pytest.raises(NonPositiveInput, match=f"temperature = {value}"):
            ex.load_config(f"[material]\ntemperature = {value}\n")


    @pytest.mark.parametrize("line", [
        '[material]\ntemperature = "0.7K"\n',
        "[fig4]\nbandwidths_ghz = 0.2\n",
        "[fig4]\nbandwidths_ghz = [0.2, True]\n",
        "[fig4]\ntls_enabled = 1\n",
        "[fig2]\nn_delays = 36.0\n",
        "seed = true\n",
        "outdir = 3\n",
    ])
    def test_wrong_value_type_names_the_key(self, line):
        key = line.split("=")[0].split("\n")[-1].strip()
        with pytest.raises(NonPositiveInput, match=key):
            ex.load_config(line)

    @pytest.mark.parametrize("section,key", [
        ("fig2", "fields_gauss"), ("fig4", "bandwidths_ghz"),
        ("table1", "detunings_ghz"), ("fig5", "pump_powers")])
    def test_empty_scan_list_names_the_key(self, section, key):
        # an empty scan left each scenario to fail in max() or an index
        with pytest.raises(NonPositiveInput, match=f"{key}.*non-empty"):
            ex.load_config(f"[{section}]\n{key} = []\n")

    def test_int_accepted_for_float(self):
        assert ex.load_config("[material]\ntemperature = 1\n").material.temperature == 1.0

    def test_hash_inside_quotes_is_not_a_comment(self):
        cfg = ex.load_config('outdir = "runs/#1"  # trailing comment\n')
        assert cfg.outdir == "runs/#1"

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_dump_load_roundtrip_generated(self, data):
        cfg = generated_config(data)
        text = ex.dump_config(cfg)
        assert ex.load_config(text) == cfg
        assert ex.dump_config(ex.load_config(text)) == text

        # a non-finite float is refused by the dump and by the load, naming
        # the key, so no config that dumps fails to load
        name = data.draw(st.sampled_from(["fig2", "fig4", "table1", "fig5", "efficiency"]))
        section = getattr(cfg, name)
        key = data.draw(st.sampled_from([
            f.name for f in fields(section)
            if isinstance(getattr(section, f.name), (float, tuple))]))
        bad = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        literal = data.draw(st.sampled_from(["1e999", "-1e999"]))
        if isinstance(getattr(section, key), tuple):
            bad, literal = (1.0, bad), f"[1.0, {literal}]"
        setattr(section, key, bad)
        with pytest.raises(NonPositiveInput, match=key):
            ex.dump_config(cfg)
        with pytest.raises(NonPositiveInput, match=key):
            ex.load_config(f"{text}\n[{name}]\n{key} = {literal}\n")


def generated_config(data):
    """A configuration whose every field is drawn with the type of its default:
    finite floats (positive where the dataclass checks it, branching fractions
    summing to at most 1), tuples of floats, ints, booleans and any text."""
    def value(name, default):
        if isinstance(default, bool):
            return data.draw(st.booleans())
        if isinstance(default, int):
            return data.draw(st.integers())
        if isinstance(default, str):
            return data.draw(st.text())
        number = st.floats(min_value=0.0, max_value=0.5) if name.startswith("beta_") \
            else st.floats(min_value=1e-300, max_value=1e300)
        if isinstance(default, tuple):
            return tuple(data.draw(st.lists(number, min_size=1, max_size=4)))
        return data.draw(number)

    cfg = ex.default_config()
    for f in fields(cfg):
        current = getattr(cfg, f.name)
        if is_dataclass(current):
            setattr(cfg, f.name, replace(current, **{
                g.name: value(g.name, getattr(current, g.name)) for g in fields(current)}))
        else:
            setattr(cfg, f.name, value(f.name, current))
    return cfg


class TestUnits:
    def test_field(self):
        assert parse_quantity("350G", "field") == pytest.approx(0.035)
        assert parse_quantity("3kG", "field") == pytest.approx(0.3)
        assert parse_quantity("0.3T", "field") == pytest.approx(0.3)

    def test_frequency(self):
        assert parse_quantity("6.4GHz", "frequency") == pytest.approx(6.4e9)
        assert parse_quantity("50MHz", "frequency") == pytest.approx(50e6)

    def test_time_power_temperature(self):
        assert parse_quantity("30ms", "time") == pytest.approx(0.03)
        assert parse_quantity("0.15mW", "power") == pytest.approx(1.5e-4)
        assert parse_quantity("0.7K", "temperature") == pytest.approx(0.7)

    def test_bare_number(self):
        assert parse_quantity("42.5") == 42.5

    def test_kind_mismatch(self):
        with pytest.raises(NonPositiveInput):
            parse_quantity("350G", "frequency")

    def test_garbage(self):
        with pytest.raises(NonPositiveInput):
            parse_quantity("abc", "field")

    @pytest.mark.parametrize("text", ["1e300GHz", "1e400", "-1e305GHz"])
    def test_overflow_to_infinity_rejected(self, text):
        with pytest.raises(NonPositiveInput, match="not a finite number"):
            parse_quantity(text)


def strict_json(text):
    """``json.loads`` that refuses the NaN and Infinity tokens, which are not JSON."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestExport:
    def setup_method(self):
        g = a.make_grid(-10e6, 10e6, 1e6)
        self.spec = a.absorption_spectrum(
            a.init_equilibrium_state(g, a.MaterialParams()), a.MaterialParams())
        self.curve = DecayCurve(delays=np.array([0.1, 0.2, 0.4]),
                                areas=np.array([3.0, 2.0, 1.0]),
                                sigmas=np.array([0.1, 0.1, 0.1]))
        self.comb = CombMetrics(d_peak=2.0, d0=0.5, spacing=50e6,
                                tooth_fwhm=25e6, finesse=2.0, bandwidth=1e9)
        self.hole = HoleMetrics(center=0.0, depth=1.0, fwhm=25e6,
                                area=1.0 * np.pi / 2 * 25e6)

    def test_csv_formats(self, tmp_path):
        p1 = ex.export(self.curve, "csv", tmp_path / "curve.csv")
        assert p1.read_text().startswith("delay_s,area_od_hz,sigma\n")
        p2 = ex.export(self.comb, "csv", tmp_path / "comb.csv")
        assert "finesse" in p2.read_text().splitlines()[0]
        p3 = ex.export(self.spec, "csv", tmp_path / "spec.csv")
        assert p3.read_text().startswith("detuning_hz,od\n")
        p4 = ex.export(self.hole, "csv", tmp_path / "hole.csv")
        assert "fwhm" in p4.read_text().splitlines()[0]

    def test_json_format(self, tmp_path):
        path = ex.export(self.comb, "json", tmp_path / "comb.json")
        doc = json.loads(path.read_text())
        assert doc["d_peak"] == 2.0

    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        doc = {"inf": math.inf, "nested": [1.5, -math.inf, {"nan": math.nan}]}
        assert strict_json(ex.json_text(doc)) == {"inf": None,
                                                  "nested": [1.5, None, {"nan": None}]}
        path = ex.export(doc, "json", tmp_path / "doc.json")
        assert strict_json(path.read_text())["inf"] is None

    def test_svg_format(self, tmp_path):
        path = ex.export(self.spec, "svg", tmp_path / "spec.svg")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "detuning (Hz)" in text
        assert "optical depth" in text

    def test_svg_axis_padded_below_zero_labels_zero_without_sign(self):
        # the y axis is padded to start just below 0, so its first tick is
        # ceil(lo / step) * step = -0.0
        svg = svgplot.line_plot([([0.0, 1.0], [0.0, 1.0], "")], "x", "y")
        assert ">-0<" not in svg
        assert svg.count(">0<") == 2

    def test_deterministic_bytes(self, tmp_path):
        p1 = ex.export(self.spec, "svg", tmp_path / "a.svg")
        p2 = ex.export(self.spec, "svg", tmp_path / "b.svg")
        assert p1.read_bytes() == p2.read_bytes()
        c1 = ex.export(self.curve, "csv", tmp_path / "a.csv")
        c2 = ex.export(self.curve, "csv", tmp_path / "b.csv")
        assert c1.read_bytes() == c2.read_bytes()

    def test_unsupported_format(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            ex.export(self.curve, "xlsx", tmp_path / "x.xlsx")
        with pytest.raises(UnsupportedFormat):
            ex.export(object(), "csv", tmp_path / "x.csv")


def tiny_config(outdir) -> ex.ExperimentConfig:
    """Cut-down configuration for fast end-to-end runs."""
    cfg = ex.default_config()
    cfg.outdir = str(outdir)
    cfg.bin_width = 1e6
    cfg.fig2 = replace(cfg.fig2, fields_gauss=(350.0,), n_delays=6,
                       delay_max=0.5, burn_duration=0.05, noise_rel=0.02)
    cfg.fig5 = replace(cfg.fig5, pump_powers=(2e-6, 2e-5), duration=0.05)
    return cfg


def cut_config(outdir) -> ex.ExperimentConfig:
    """Every scenario at two points with 50 ms burns: about 1 s in all."""
    cfg = tiny_config(outdir)
    cfg.fig2 = replace(cfg.fig2, fields_gauss=(350.0, 800.0))
    cfg.fig4 = replace(cfg.fig4, bandwidths_ghz=(0.2, 0.4), duration=0.05)
    cfg.table1 = replace(cfg.table1, detunings_ghz=(0.0, 1.0), duration=0.05)
    cfg.efficiency = replace(cfg.efficiency, bandwidth=0.4e9, duration=0.05)
    return cfg


# data files of each scenario under cut_config; each also writes
# <name>_report.json and <name>_manifest.json
SCENARIO_FILES = {
    "fig2": {"fig2_decay_350G.csv", "fig2_decay_800G.csv", "fig2_decays.svg"},
    "fig4": {"fig4_background.csv", "fig4_background.svg"},
    "table1": {"table1_backfill.csv"},
    "fig5": {"fig5_holes.csv", "fig5_holes.svg"},
    "efficiency": {"efficiency_comb_section.csv", "efficiency_comb_section.svg"},
}


class TestScenarioPlumbing:
    def test_fig2_manifest_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        ex.run_fig2(tiny_config(out_a))
        ex.run_fig2(tiny_config(out_b))
        man_a = json.loads((out_a / "fig2_manifest.json").read_text())
        man_b = json.loads((out_b / "fig2_manifest.json").read_text())
        assert man_a["outputs"] == man_b["outputs"]
        # recorded hashes match the actual file contents
        for entry in man_a["outputs"]:
            digest = hashlib.sha256((out_a / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_fig2_report_is_strict_json_with_an_infinite_error(self, tmp_path):
        # at this seed the flip-flop fit loses gamma_spin_slope, whose error
        # is infinite: the report and the manifest hold it as null
        cfg = ex.default_config()
        cfg.outdir, cfg.seed = str(tmp_path), 15
        cfg.fig2 = replace(cfg.fig2, noise_rel=0.02)
        summary = ex.run_fig2(cfg)
        assert math.isinf(summary["flipflop_fit"]["std_errors"]["gamma_spin_slope"])
        report = strict_json((tmp_path / "fig2_report.json").read_text())
        assert report["flipflop_fit"]["std_errors"]["gamma_spin_slope"] is None
        manifest = strict_json((tmp_path / "fig2_manifest.json").read_text())
        assert manifest["scenarios"]["fig2"] == report

    def test_fig2_seed_changes_outputs(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = tiny_config(tmp_path / "b")
        cfg_b.seed = 999
        ex.run_fig2(cfg_a)
        ex.run_fig2(cfg_b)
        man_a = json.loads((tmp_path / "a" / "fig2_manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "fig2_manifest.json").read_text())
        csv_a = [o for o in man_a["outputs"] if o["path"].endswith(".csv")]
        csv_b = [o for o in man_b["outputs"] if o["path"].endswith(".csv")]
        assert csv_a != csv_b

    @pytest.mark.filterwarnings("error::RuntimeWarning:afcsim.fitting")
    def test_fig2_fit_outcomes_defined_across_seeds(self, tmp_path):
        # the acceptance determinism setup (8 delays to 0.5 s, 2% noise): a
        # 0.5 s window often cannot pin t_long ~ 1 s, and such a fit must end
        # with a recorded reason, never with an exception or a false success
        from afcsim.fitting import OrderedLifetimesTransform
        n_converged = 0
        seeds = list(range(20)) + [999, 12345]
        for seed in seeds:
            cfg = tiny_config(tmp_path)
            cfg.seed = seed
            cfg.fig2 = replace(cfg.fig2, n_delays=8)
            summary = ex.run_fig2(cfg, write=False)
            record = summary["double_exp_fits"]["350.0"]
            assert record["stop_reason"]
            curve = summary["curves"][350.0]
            assert curve.delays.size + len(curve.dropped) == 8
            if not record["converged"]:
                assert summary["t_long_fitted_s"] == [None]
                assert summary["flipflop_fields_gauss"] == []
                continue
            n_converged += 1
            res = summary["fits"][350.0]
            assert np.all(np.isfinite(res.std_errors))
            internal = OrderedLifetimesTransform().to_internal(res.params)
            assert np.all(np.abs(internal[[1, 3]]) < 300.0)
            assert summary["t_long_fitted_s"] == [res["t_long"]]
            assert summary["flipflop_fields_gauss"] == [350.0]
        assert n_converged >= len(seeds) // 2

    def test_run_all_writes_each_documented_file_set(self, tmp_path):
        cfg = cut_config(tmp_path)
        ex.run_all(cfg)
        assert list(ex.SCENARIOS) == list(SCENARIO_FILES)
        expected = set()
        for name, data_files in SCENARIO_FILES.items():
            outputs = data_files | {f"{name}_report.json"}
            expected |= outputs | {f"{name}_manifest.json"}
            manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
            assert [o["path"] for o in manifest["outputs"]] == sorted(outputs)
            for entry in manifest["outputs"]:
                data = (tmp_path / entry["path"]).read_bytes()
                assert entry["sha256"] == hashlib.sha256(data).hexdigest()
            report = json.loads((tmp_path / f"{name}_report.json").read_text())
            assert manifest["scenarios"] == {name: report}
            assert ex.load_config(manifest["config"]) == cfg
        assert {p.name for p in tmp_path.iterdir()} == expected

    def test_fig5_runner_writes_expected_files(self, tmp_path):
        cfg = tiny_config(tmp_path)
        summary = ex.run_fig5(cfg)
        assert (tmp_path / "fig5_holes.csv").exists()
        assert (tmp_path / "fig5_report.json").exists()
        assert (tmp_path / "fig5_manifest.json").exists()
        assert len(summary["probe_depth"]) == 2


# (scenario section, comb bandwidth) of the mirror-symmetric combs with the
# most and the fewest bins: fig4's narrowest and widest benchmark combs and
# the efficiency comb
SYMMETRIC_COMBS = [("fig4", 0.2e9), ("fig4", 3.2e9), ("efficiency", 6.4e9)]


class TestHalfGridBurn:
    """A lone comb on a grid mirror-symmetric about 0 is burned on the
    grid's lower half and mirrored; every other comb burn runs on the full
    grid."""

    @staticmethod
    def comb_inputs(section, bandwidth):
        cfg = ex.default_config()
        comb = getattr(cfg, section)
        params = cfg.material.with_(peak_od=comb.peak_od)
        seg = a.pumping._comb_segment(((bandwidth, 0.0),), comb.spacing, comb.pit_width,
                                      comb.duration, comb.total_power, "tophat")
        return cfg, comb, params, seg

    @staticmethod
    def spy_grids(monkeypatch):
        """The grid of every ``_evolve_records`` call the burn makes."""
        grids = []

        def spy(state, *args):
            grids.append(state.grid)
            return a.pumping._evolve_records(state, *args)

        monkeypatch.setattr(ex, "_evolve_records", spy)
        return grids

    @pytest.mark.parametrize("section,bandwidth", SYMMETRIC_COMBS)
    def test_mirrored_burn_equals_the_full_grid_burn(self, monkeypatch, section, bandwidth):
        cfg, comb, params, seg = self.comb_inputs(section, bandwidth)
        grids = self.spy_grids(monkeypatch)
        state, records = ex._burn_combs(bandwidth, params, cfg.tls, comb, cfg.bin_width)
        n = state.grid.n_bins
        assert [g.n_bins for g in grids] == [n // 2]
        assert grids[0].nu_min == state.grid.nu_min
        seq = a.PumpSequence(segments=(seg,), dark_after=comb.wait)
        full = a.pumping._evolve_records(state, seq, params, cfg.tls, [seq.total_duration])
        assert records.shape == full.shape == (1, n, 4)
        assert np.max(np.abs(records - full)) <= 1e-13
        a.core.check_populations(state.weight, np.moveaxis(records, 2, 0))

    @pytest.mark.parametrize("section,bandwidth", SYMMETRIC_COMBS)
    def test_half_grid_pump_rates_are_the_full_grids(self, section, bandwidth):
        cfg, comb, params, seg = self.comb_inputs(section, bandwidth)
        half = bandwidth / 2.0 + 150e6
        grid = a.make_grid(-half, half, cfg.bin_width)
        lower = a.FrequencyGrid(grid.nu_min, grid.bin_width, grid.n_bins // 2)
        full = a.pumping.pump_rate_profile(seg, grid, params)
        assert np.array_equal(a.pumping.pump_rate_profile(seg, lower, params),
                              full[:lower.n_bins])

    def test_the_scenario_combs_burn_on_half_grids(self, monkeypatch):
        cfg = ex.default_config()
        grids = self.spy_grids(monkeypatch)
        ex.run_fig4(cfg, write=False)
        widths = [2 * g.n_bins * g.bin_width for g in grids]
        assert widths == pytest.approx([bw * 1e9 + 300e6 for bw in cfg.fig4.bandwidths_ghz])
        assert all(g.nu_min + g.span == pytest.approx(0.0, abs=1e-3) for g in grids)

    @pytest.mark.parametrize("case", ["pair leg", "positive control", "even, off-centre",
                                      "odd bin count"])
    def test_other_burns_use_every_bin(self, monkeypatch, case):
        cfg = ex.default_config()
        comb = cfg.table1
        params = cfg.material.with_(peak_od=comb.peak_od)
        bandwidth, others, grid_lo, tls = comb.bandwidth, (), None, cfg.tls
        if case == "pair leg":
            others = ((comb.bandwidth, -0.6e9),)
        elif case == "positive control":
            det = comb.control_zeeman_ghz * 1e9
            grid_lo = -det - comb.control_bandwidth2 / 2.0 - 100e6
            tls = a.TlsParams.disabled()
        elif case == "even, off-centre":
            # an even 1,000 bins from -250.05 to +249.95 MHz
            bandwidth = 0.2001e9
        else:
            bandwidth = 0.1003e9
        grids = self.spy_grids(monkeypatch)
        state, records = ex._burn_combs(bandwidth, params, tls, comb, cfg.bin_width,
                                        others, grid_lo)
        assert grids == [state.grid]
        assert records.shape == (1, state.grid.n_bins, 4)
        if case == "even, off-centre":
            assert state.grid.n_bins == 1000
            assert state.grid.nu_min + state.grid.nu_max == pytest.approx(-0.1e6)
        if case == "odd bin count":
            assert state.grid.n_bins == 801


class TestCalibrateTls:
    """The TLS calibration meets its own stop rule on the fig5 pump-probe
    pair, and the default TlsParams meet the same targets."""

    @staticmethod
    def assert_on_targets(tls):
        summary = ex.run_fig5(replace(ex.default_config(), tls=tls), write=False)
        assert abs(summary["probe_depth_ratio_min_over_max"] - 3.0) < 0.05 * 3.0
        assert abs(summary["probe_width_growth_hz"] - 5e6) < 0.05 * 5e6

    def test_calibrated_tls_meets_the_targets(self):
        self.assert_on_targets(ex.calibrate_tls())

    def test_default_tls_meets_the_targets(self):
        self.assert_on_targets(a.TlsParams())

    @staticmethod
    def count_points(monkeypatch):
        """Record the pump power of every fig5 point simulated from now on."""
        powers = []
        point = ex._fig5_point

        def counted(config, pump_power):
            powers.append(pump_power)
            return point(config, pump_power)

        monkeypatch.setattr(ex, "_fig5_point", counted)
        return powers

    @staticmethod
    def assert_within(tls, config, rel):
        summary = ex.run_fig5(replace(config, tls=tls), write=False)
        assert abs(summary["probe_depth_ratio_min_over_max"] / 3.0 - 1.0) <= rel
        assert abs(summary["probe_width_growth_hz"] / 5e6 - 1.0) <= rel

    # measured: 7 fig5 pairs from the defaults and 17 from the cold start
    @pytest.mark.parametrize("tls, pairs", [(a.TlsParams(), 10), (a.TlsParams.disabled(), 20)],
                             ids=["default", "cold"])
    def test_newton_meets_the_targets_in_few_pairs(self, monkeypatch, tls, pairs):
        config = replace(ex.default_config(), tls=tls)
        powers = self.count_points(monkeypatch)
        calibrated = ex.calibrate_tls(config)
        assert len(powers) <= 2 * pairs
        self.assert_within(calibrated, config, 1e-3)

    def test_unreachable_targets_are_named(self):
        # the probe depth barely moves between 0.1 and 0.105 mW, whatever
        # the couplings, so its ratio cannot reach 3
        config = ex.default_config()
        config = replace(config, fig5=replace(config.fig5, pump_powers=(1e-4, 1.05e-4)))
        with pytest.raises(CalibrationFailed, match="depth ratio off by"):
            ex.calibrate_tls(config)

    def test_fig2_branching_meets_the_targets_or_says_not(self):
        config = ex.default_config()
        config = replace(config, material=config.material.with_(
            beta_zeeman=config.fig2.beta_zeeman, beta_shf=config.fig2.beta_shf))
        try:
            calibrated = ex.calibrate_tls(config)
        except CalibrationFailed:
            return
        self.assert_within(calibrated, config, 1e-3)

    def test_a_start_fig5_cannot_measure_is_named(self, monkeypatch):
        def no_hole(config, pump_power):
            raise NoHoleFound("no hole")

        monkeypatch.setattr(ex, "_fig5_point", no_hole)
        with pytest.raises(CalibrationFailed) as info:
            ex.calibrate_tls()
        assert isinstance(info.value.__cause__, NoHoleFound)


class TestCli:
    def test_print_config(self, capsys):
        assert cli_main(["print-config"]) == 0
        out = capsys.readouterr().out
        assert "[material]" in out
        assert ex.load_config(out) == ex.default_config()

    def test_fit_double_exp(self, tmp_path, capsys):
        model = a.model_double_exponential()
        t = np.geomspace(0.01, 5, 25)
        y = model.evaluate(np.array([0.6, 0.06, 0.4, 1.0]), t)
        path = tmp_path / "decay.csv"
        path.write_text("delay_s,area\n" + "\n".join(
            f"{ti},{yi}" for ti, yi in zip(t, y)))
        assert cli_main(["fit", "double-exp", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["t_long"] == pytest.approx(1.0, rel=1e-3)

    def test_fit_report_writes_an_infinite_error_as_null(self, tmp_path, capsys):
        # a constant offset under one decay: t_long runs off to infinity
        t = np.geomspace(0.011, 5.0, 36)
        path = tmp_path / "decay.csv"
        path.write_text("\n".join(f"{ti},{yi}" for ti, yi in zip(t, np.exp(-t / 0.06) + 0.5)))
        assert cli_main(["fit", "double-exp", str(path)]) == 1
        doc = strict_json(capsys.readouterr().out)
        assert doc["stop_reason"].startswith("lost_influence")
        assert doc["std_errors"]["t_long"] is None

    def test_fit_flipflop(self, tmp_path, capsys):
        path = tmp_path / "rates.csv"
        path.write_text("b_t,rate\n0.035,1.0\n0.06,0.735\n0.08,0.41\n")
        assert cli_main(["fit", "flipflop", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.1e9 < doc["params"]["gamma_spin_static"] < 1e9

    def test_fit_dip(self, tmp_path, capsys):
        model = a.model_lorentzian_dip()
        x = np.linspace(-100, 100, 201)
        y = model.evaluate(np.array([2.0, 1.0, 5.0, 20.0]), x)
        path = tmp_path / "dip.csv"
        path.write_text("\n".join(f"{xi},{yi}" for xi, yi in zip(x, y)))
        assert cli_main(["fit", "dip", str(path), "--out",
                         str(tmp_path / "report.json")]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["params"]["fwhm"] == pytest.approx(20.0, rel=1e-6)

    def test_fit_malformed_csv_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("delay_s,area\n0.01,1.0\n3,abc\n")
        assert cli_main(["fit", "double-exp", str(path)]) == 1
        assert "error: CSV line 3 " in capsys.readouterr().err

    def test_bad_unit_exits_nonzero(self, tmp_path, capsys):
        rc = cli_main(["simulate", "hole-decay", "--field", "350Potato",
                       "--outdir", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_infinite_bandwidth_exits_with_an_error_line(self, tmp_path, capsys):
        rc = cli_main(["simulate", "afc", "--bandwidth", "1e300GHz",
                       "--outdir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: quantity '1e300GHz' is not a finite number\n"

    def test_empty_scan_list_exits_with_an_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text("[fig4]\nbandwidths_ghz = []\n")
        rc = cli_main(["reproduce", "fig4", "--config", str(cfg_path),
                       "--outdir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config key 'bandwidths_ghz' ")

    def test_fit_missing_columns_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("only_one_column\n1\n2\n")
        rc = cli_main(["fit", "double-exp", str(path)])
        assert rc == 1

    def test_simulate_pump_probe(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text(ex.dump_config(cfg))
        rc = cli_main(["simulate", "pump-probe", "--pump-power", "20uW",
                       "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pump_powers_w"][0] == pytest.approx(2e-5)
        assert doc["probe_depth"][0] > 0

    def test_reproduce_writes_one_scenario(self, tmp_path):
        for name in (*ex.SCENARIOS, "all"):
            assert build_parser().parse_args(["reproduce", name]).target == name
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text(ex.dump_config(cut_config(tmp_path / "unused")))
        out = tmp_path / "out"
        rc = cli_main(["reproduce", "table1", "--config", str(cfg_path),
                       "--outdir", str(out)])
        assert rc == 0
        assert {p.name for p in out.iterdir()} == {
            "table1_backfill.csv", "table1_report.json", "table1_manifest.json"}

    def test_reproduce_fig2_with_every_delay_dropped(self, tmp_path, capsys):
        # at 50% noise and one repeat no hole clears the noise floor: each
        # field's fit records why it could not run, and the plot is empty
        cfg = cut_config(tmp_path / "unused")
        cfg.fig2 = replace(cfg.fig2, noise_rel=0.5, repeats=1)
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text(ex.dump_config(cfg))
        out = tmp_path / "out"
        assert cli_main(["reproduce", "fig2", "--config", str(cfg_path),
                         "--outdir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert {p.name for p in out.iterdir()} == SCENARIO_FILES["fig2"] | {
            "fig2_report.json", "fig2_manifest.json"}
        report = strict_json((out / "fig2_report.json").read_text())
        for field in ("350.0", "800.0"):
            assert len(report["dropped_delays"][field]) == cfg.fig2.n_delays
            assert report["double_exp_fits"][field] == {
                "converged": False,
                "stop_reason": "NonPositiveInput: need at least 4 points for 4 parameters, got 0"}
        assert report["flipflop_fields_gauss"] == []
        assert report["flipflop_fit"] is None
        assert report["t_long_fitted_s"] == [None, None]
        svg = (out / "fig2_decays.svg").read_text()
        assert svg.count('<polyline points=""') == 2

    def test_simulate_hole_decay(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text(ex.dump_config(tiny_config(tmp_path)))

        def run(*flags):
            assert cli_main(["simulate", "hole-decay", "--field", "600G", "--config",
                             str(cfg_path), "--outdir", str(tmp_path), *flags]) == 0
            return strict_json(capsys.readouterr().out)

        doc = run("--power", "2uW", "--detuning", "250MHz", "--seed", "7")
        assert list(doc) == ["fields_gauss", "t_long_fitted_s", "t_short_fitted_s"]
        assert doc["fields_gauss"] == [pytest.approx(600.0)]
        report = strict_json((tmp_path / "fig2_report.json").read_text())
        assert report["fields_gauss"] == doc["fields_gauss"]
        # --seed reseeds the readout noise: the written decay curve changes
        csv_7 = (tmp_path / "fig2_decay_600G.csv").read_bytes()
        assert run("--seed", "7") == doc
        assert (tmp_path / "fig2_decay_600G.csv").read_bytes() == csv_7
        run("--seed", "8")
        assert (tmp_path / "fig2_decay_600G.csv").read_bytes() != csv_7

    def test_simulate_afc_flags_change_the_comb(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text(ex.dump_config(cut_config(tmp_path)))

        def run(*flags):
            assert cli_main(["simulate", "afc", "--bandwidth", "0.2GHz", "--spacing", "50MHz",
                             "--config", str(cfg_path), "--outdir", str(tmp_path),
                             *flags]) == 0
            return strict_json(capsys.readouterr().out)

        base = run()
        assert list(base) == ["d_peak", "d0", "spacing", "tooth_fwhm", "finesse", "bandwidth",
                              "efficiency_percent"]
        assert base["spacing"] == pytest.approx(50e6)
        for flags in (["--no-tls"], ["--od", "1.0"], ["--power", "0.2mW"]):
            assert run(*flags) != base, flags

    def test_simulate_backfill(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text(ex.dump_config(cut_config(tmp_path)))
        assert cli_main(["simulate", "backfill", "--detuning", "0.6GHz", "--config",
                         str(cfg_path), "--outdir", str(tmp_path)]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["detunings_ghz"] == [pytest.approx(0.6)]
        assert len(doc["d0"]) == 1 and doc["d0"][0] >= 0
        assert "control" not in doc

    def test_simulate_pump_probe_probe_power(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text(ex.dump_config(tiny_config(tmp_path)))

        def run(*flags):
            assert cli_main(["simulate", "pump-probe", "--pump-power", "20uW", "--config",
                             str(cfg_path), "--outdir", str(tmp_path), *flags]) == 0
            return strict_json(capsys.readouterr().out)

        base = run()
        doc = run("--probe-power", "1uW")
        assert list(doc) == ["pump_powers_w", "pump_depth", "pump_fwhm_hz", "probe_depth",
                             "probe_fwhm_hz"]
        assert doc["probe_depth"] != base["probe_depth"]

    def test_report_efficiency(self, tmp_path, capsys):
        cfg = cut_config(tmp_path)
        cfg_path = tmp_path / "cfg.toml"
        cfg_path.write_text(ex.dump_config(cfg))
        assert cli_main(["report", "efficiency", "--config", str(cfg_path),
                         "--outdir", str(tmp_path)]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert list(doc) == ["d_peak", "d0", "spacing", "tooth_fwhm", "finesse", "bandwidth",
                             "efficiency_percent", "storage_time_s"]
        assert doc["storage_time_s"] == pytest.approx(1.0 / cfg.efficiency.spacing)
        assert 0 < doc["efficiency_percent"] < 100
        assert (tmp_path / "efficiency_report.json").exists()

    def test_reproduce_missing_config_exits_nonzero(self, tmp_path, capsys):
        rc = cli_main(["reproduce", "table1", "--config",
                       str(tmp_path / "missing.toml"), "--outdir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_outdir_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AFCSIM_OUTDIR", str(tmp_path / "envout"))
        cfg = ex.default_config()
        assert cfg.resolve_outdir() == Path(str(tmp_path / "envout"))
