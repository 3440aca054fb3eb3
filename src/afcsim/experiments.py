"""Scenario runners, configuration, manifests and artifact export.

Each named scenario in :data:`SCENARIOS` (``fig2``, ``fig4``, ``table1``,
``fig5``, ``efficiency``) bundles a standard parameter set and simulates the
corresponding protocol end to end.  Its ``run_*`` function renders its
CSV/SVG artifacts as text and hands them to one writer, which stores them
with ``<name>_report.json`` and a ``<name>_manifest.json`` holding the
config and the sha256 of every file.  :func:`run_all` and the CLI's
``reproduce`` read the same table.  Fixed config and seed give
byte-identical data files.

The TLS coefficients follow a codified calibration: :func:`calibrate_tls`
sets ``kappa_fill`` and ``kappa_diff`` together, by one Newton solve, so
that fig5's probe hole is three times shallower and 5 MHz wider at maximum
than at minimum pump power, and raises :class:`CalibrationFailed` when no
couplings get there; the comb backgrounds and the echo-efficiency
prediction then contain no further free parameters.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    AbsorptionSpectrum,
    EnsembleState,
    FrequencyGrid,
    MaterialParams,
    absorption_spectrum,
    init_equilibrium_state,
    make_grid,
    zeeman_splitting,
)
from .errors import AfcSimError, CalibrationFailed, NonPositiveInput, UnsupportedFormat
from .fitting import (
    fit_curve,
    model_double_exponential,
    model_flipflop_field,
)
from .pumping import (
    PumpSequence,
    _comb_segment,
    _evolve_records,
    build_two_hole_sequence,
    evolve,
)
from .readout import (
    CombMetrics,
    DecayCurve,
    HoleMetrics,
    afc_efficiency,
    _hole_decays,
    analyze_comb,
    measure_hole,
    storage_time,
)
from .relaxation import TlsParams, flipflop_lifetime
from . import svgplot


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class Fig2Config:
    """Hole-decay scenario: per-field burn/wait/read and double-exp fits.

    The branching fractions are configured here (not in the global material
    table) so that both decay components carry comparable weight in the
    measured area curves, as observed; the protocol does not constrain them
    independently.  They apply to this scenario only: every other scenario,
    and :func:`calibrate_tls`, uses ``MaterialParams``' branching
    (``beta_zeeman``, ``beta_shf``) = (0.4, 0.1), not this (0.05, 0.8).
    """

    fields_gauss: tuple = (350.0, 600.0, 800.0)
    delay_min: float = 0.011
    delay_max: float = 5.0
    n_delays: int = 36
    burn_power: float = 2e-6
    detuning: float = 250e6
    hole_width: float = 25e6
    burn_duration: float = 0.3
    span: float = 100e6
    noise_rel: float = 0.0
    repeats: int = 20
    beta_zeeman: float = 0.05
    beta_shf: float = 0.8


@dataclass
class Fig4Config:
    """Background absorption versus comb bandwidth."""

    bandwidths_ghz: tuple = (0.2, 0.4, 0.8, 1.6, 3.2, 6.4)
    spacing: float = 50e6
    pit_width: float = 25e6
    total_power: float = 5e-4
    duration: float = 0.3
    wait: float = 0.03
    peak_od: float = 0.8
    tls_enabled: bool = True


@dataclass
class Table1Config:
    """Back-filling check: pairs of combs with varying centre detuning.

    Within a pair the total pump power is split between the combs so the
    deposited pump energy matches the single-comb reference.  The positive
    control re-runs the 1 GHz pair in an artificial configuration whose
    displaced absorption is compact, slow to relax and doubled in mass, so
    an overlap would be unmistakable.
    """

    detunings_ghz: tuple = (0.0, 0.6, 1.0, 1.4)
    bandwidth: float = 200e6
    spacing: float = 50e6
    pit_width: float = 25e6
    total_power: float = 5e-4
    duration: float = 0.3
    wait: float = 0.03
    peak_od: float = 0.8
    run_control: bool = True
    control_zeeman_ghz: float = 1.0
    control_gamma_static: float = 0.15e9
    control_alpha_ff: float = 1e8
    control_bandwidth2: float = 400e6


@dataclass
class Fig5Config:
    """Pump-probe hole pair versus pump power."""

    pump_powers: tuple = (2e-6, 8e-6, 2e-5, 5e-5, 1e-4)
    probe_power: float = 1.5e-7
    separation: float = 200e6
    hole_width: float = 25e6
    center: float = 250e6
    duration: float = 0.3
    wait: float = 0.03


@dataclass
class EfficiencyConfig:
    """Echo-efficiency prediction for the full-bandwidth comb."""

    bandwidth: float = 6.4e9
    spacing: float = 50e6
    pit_width: float = 25e6
    total_power: float = 5e-4
    duration: float = 0.3
    wait: float = 0.03
    peak_od: float = 2.0


@dataclass
class ExperimentConfig:
    """Top-level configuration: material, TLS and per-scenario settings."""

    seed: int = 12345
    outdir: str = ""
    bin_width: float = 0.5e6
    material: MaterialParams = field(default_factory=MaterialParams)
    tls: TlsParams = field(default_factory=TlsParams)
    fig2: Fig2Config = field(default_factory=Fig2Config)
    fig4: Fig4Config = field(default_factory=Fig4Config)
    table1: Table1Config = field(default_factory=Table1Config)
    fig5: Fig5Config = field(default_factory=Fig5Config)
    efficiency: EfficiencyConfig = field(default_factory=EfficiencyConfig)

    def resolve_outdir(self) -> Path:
        root = self.outdir or os.environ.get("AFCSIM_OUTDIR", ".")
        return Path(root)


#: ``{section name: its dataclass}`` and the top-level keys, in field order
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if f.default_factory is not MISSING}
_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _SECTIONS)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _fmt_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    if isinstance(value, str):
        # an ASCII literal, so no character of the value ends the line
        escaped = value.encode("unicode_escape").decode("ascii").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)


def _dump_line(key: str, value) -> str:
    """``key = value``; a value ``load_config`` would refuse, such as a
    non-finite float, is refused here so every dump loads back."""
    return f"{key} = {_fmt_value(_typed(key, value, value))}"


def dump_config(config: ExperimentConfig) -> str:
    """Serialise the configuration to a TOML-style key/value document."""
    lines = ["# afcsim experiment configuration", ""]
    for key in _TOP_KEYS:
        lines.append(_dump_line(key, getattr(config, key)))
    for section in _SECTIONS:
        obj = getattr(config, section)
        lines.append("")
        lines.append(f"[{section}]")
        for f in fields(obj):
            lines.append(_dump_line(f.name, getattr(obj, f.name)))
    return "\n".join(lines) + "\n"


def _parse_value(text: str):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    return ast.literal_eval(text)


def _strip_comment(line: str) -> str:
    """``line`` without a ``#`` comment; a ``#`` inside quotes is kept."""
    quote = None
    escaped = False
    for i, char in enumerate(line):
        if escaped:
            escaped = False
        elif quote and char == "\\":
            escaped = True
        elif char == quote:
            quote = None
        elif quote is None and char in "\"'":
            quote = char
        elif quote is None and char == "#":
            return line[:i]
    return line


def _is_finite_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _typed(key: str, value, default):
    """``value`` if it has the type of the field's ``default`` (an int passes
    for a float, and a non-empty list of numbers for a tuple, as a tuple).
    Floats must be finite: ``dump_config`` could not write ``inf`` or ``nan``
    back.  Every tuple field is a scan, which needs a point."""
    expected = type(default).__name__
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(default, float):
        ok = _is_finite_number(value)
        expected = "a finite float"
    elif isinstance(default, tuple):
        ok = (isinstance(value, (list, tuple)) and len(value) > 0
              and all(_is_finite_number(v) for v in value))
        value = tuple(value) if ok else value
        expected = "a non-empty list of finite numbers"
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise NonPositiveInput(f"config key {key!r} must be {expected}, got {value!r}")
    return value


def load_config(source) -> ExperimentConfig:
    """Parse a TOML-style document (path or text) into a configuration.

    Unknown keys are rejected so typos do not silently fall back to
    defaults, and every value must have the type of its field's default.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        text = Path(source).read_text()
    else:
        text = str(source)
    top: dict = {}
    sections: dict = {name: {} for name in _SECTIONS}
    current = None
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise NonPositiveInput(f"unknown config section [{current}]")
            continue
        try:
            key, value = line.split("=", 1)
            parsed = _parse_value(value)
        except (ValueError, SyntaxError) as exc:
            raise NonPositiveInput(f"cannot parse config line: {raw!r}") from exc
        key = key.strip()
        if current is None:
            top[key] = parsed
        else:
            sections[current][key] = parsed

    config = ExperimentConfig()
    for key, value in top.items():
        if key not in _TOP_KEYS:
            raise NonPositiveInput(f"unknown top-level config key {key!r}")
        setattr(config, key, _typed(key, value, getattr(config, key)))
    for name, cls in _SECTIONS.items():
        if not sections[name]:
            continue
        valid = {f.name for f in fields(cls)}
        unknown = set(sections[name]) - valid
        if unknown:
            raise NonPositiveInput(f"unknown keys in [{name}]: {sorted(unknown)}")
        current_obj = getattr(config, name)
        data = {f.name: getattr(current_obj, f.name) for f in fields(cls)}
        for key, value in sections[name].items():
            data[key] = _typed(key, value, data[key])
        setattr(config, name, cls(**data))
    return config


# ---------------------------------------------------------------------------
# Artifact text, export and the scenario writer
# ---------------------------------------------------------------------------

def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def json_text(doc, sort_keys: bool = True) -> str:
    """``doc`` as JSON text indented by two, ending in a newline.  Every
    JSON file and report the package writes goes through here.  A
    non-finite float (an infinite error bar, say) is written as ``null``:
    JSON has no NaN or Infinity, and strict parsers reject those tokens."""
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=sort_keys,
                      allow_nan=False) + "\n"


def _table_csv(header: str, rows) -> str:
    """CSV text: the scanned first column at 6 significant digits, the rest at 12."""
    lines = [header]
    for first, *rest in rows:
        lines.append(",".join([f"{first:.6g}"] + [f"{v:.12g}" for v in rest]))
    return "\n".join(lines) + "\n"


def _render(artifact, fmt: str) -> str:
    """Text of an artifact as ``csv``, ``json`` or ``svg`` (line-plot data)."""
    if fmt == "csv":
        if isinstance(artifact, (AbsorptionSpectrum, DecayCurve, CombMetrics)):
            return artifact.to_csv()
        if isinstance(artifact, HoleMetrics):
            d = artifact.as_dict()
            return ",".join(d) + "\n" + ",".join(f"{v:.12g}" for v in d.values()) + "\n"
        raise UnsupportedFormat(f"no CSV form for {type(artifact).__name__}")
    if fmt == "json":
        if hasattr(artifact, "as_dict"):
            return json_text(artifact.as_dict())
        if isinstance(artifact, AbsorptionSpectrum):
            return json_text({"detuning_hz": artifact.grid.centers.tolist(),
                              "od": artifact.od.tolist()})
        if isinstance(artifact, dict):
            return json_text(artifact)
        raise UnsupportedFormat(f"no JSON form for {type(artifact).__name__}")
    if fmt == "svg":
        if isinstance(artifact, AbsorptionSpectrum):
            return svgplot.line_plot(
                [(artifact.grid.centers, artifact.od, "")],
                xlabel="detuning (Hz)", ylabel="optical depth")
        if isinstance(artifact, DecayCurve):
            return svgplot.line_plot(
                [(artifact.delays, artifact.areas, "")],
                xlabel="delay (s)", ylabel="hole area (OD Hz)")
        raise UnsupportedFormat(f"no SVG form for {type(artifact).__name__}")
    raise UnsupportedFormat(f"unknown format {fmt!r}")


def export(artifact, fmt: str, path) -> Path:
    """Write an artifact as ``csv``, ``json`` or ``svg`` (line-plot data).

    Returns the written path.  Output bytes depend only on the artifact
    contents.
    """
    data = _render(artifact, fmt).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def _write_scenario(config: ExperimentConfig, name: str, summary: dict,
                    files: dict) -> None:
    """Write a scenario's ``{file name: text}`` artifacts and its
    ``<name>_report.json`` into the output directory, then
    ``<name>_manifest.json``: version, write time, config text, the summary
    and the sha256 of each of those files, sorted by name."""
    from . import __version__
    outdir = config.resolve_outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    files = {**files, f"{name}_report.json": json_text(summary)}
    outputs = []
    for file_name, text in sorted(files.items()):
        data = text.encode()
        (outdir / file_name).write_bytes(data)
        outputs.append({"path": file_name, "sha256": hashlib.sha256(data).hexdigest()})
    manifest = {
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": dump_config(config),
        "scenarios": {name: summary},
        "outputs": outputs,
    }
    (outdir / f"{name}_manifest.json").write_text(json_text(manifest))


# ---------------------------------------------------------------------------
# Shared scenario pieces
# ---------------------------------------------------------------------------

def _burn_combs(bandwidth: float, params: MaterialParams, tls: TlsParams,
                comb, bin_width: float, others: tuple = (),
                grid_lo: Optional[float] = None) -> tuple:
    """Burn a comb at zero detuning, and any ``others`` beside it, from
    thermal equilibrium through the comb protocol's wait.

    ``comb`` is the scenario's comb-protocol section (fig4, table1 or
    efficiency), read for spacing, pit width, duration, wait and power.
    ``others`` holds a ``(bandwidth, centre)`` pair per further comb; the
    grid reaches 100 MHz below each of them (or down to ``grid_lo``), and
    150 MHz above the first comb.  All combs are burned in one segment that
    shares the total power equally between them, so the deposited pump
    energy matches the single-comb case.  Returns ``(equilibrium state,
    records)``: the state before the burn, and the ``(1, n_bins, 4)``
    populations at the end of the wait, both on the full grid.

    A lone comb (no ``others``, no ``grid_lo``) on a grid mirror-symmetric
    about 0, with an even bin count and ``nu_min + nu_max`` zero to 1e-9 of
    a bin, is burned on the grid's lower half and mirrored onto the upper.
    Its pits and carrier leak lie symmetrically about 0, the initial state
    is flat, and the diffusion Laplacian treats both directions alike, so
    the generator commutes with the mirror and the state stays symmetric.
    The two bins beside 0 then hold equal populations and no population
    diffuses between them, which is what the half grid's reflective edge at
    0 imposes: the edge is exact.  The half grid's pump rates are the full
    grid's first half bit for bit.
    """
    half = bandwidth / 2.0
    lo = min([-half - 150e6 if grid_lo is None else grid_lo]
             + [center - width / 2 - 100e6 for width, center in others])
    grid = make_grid(lo, half + 150e6, bin_width)
    seg = _comb_segment(((bandwidth, 0.0), *others), comb.spacing, comb.pit_width,
                        comb.duration, comb.total_power, "tophat")
    seq = PumpSequence(segments=(seg,), dark_after=comb.wait)

    mirror = (not others and grid_lo is None and grid.n_bins % 2 == 0
              and abs(grid.nu_min + grid.nu_max) <= 1e-9 * bin_width)
    burn = FrequencyGrid(grid.nu_min, bin_width, grid.n_bins // 2) if mirror else grid
    records = _evolve_records(init_equilibrium_state(burn, params), seq, params, tls,
                              [seq.total_duration])
    if mirror:
        records = np.concatenate([records, records[:, ::-1]], axis=1)
    return init_equilibrium_state(grid, params), records


def _comb_background(bandwidth: float, params: MaterialParams, tls: TlsParams,
                     comb, bin_width: float, others: tuple = (),
                     grid_lo: Optional[float] = None) -> tuple:
    """Burn the combs by :func:`_burn_combs` and analyse the one at zero
    detuning.

    Returns ``(CombMetrics, AbsorptionSpectrum section)``, assessed over the
    central +-150 MHz (bounded by the comb extent).  :func:`_burn_combs`
    may burn a lone comb on half its grid and mirror it; the spectrum is
    still taken on the full grid, because the Zeeman anti-hole kernel
    displaces each pit's absorption to one side: the optical depth is not
    mirror-symmetric though the populations are.
    """
    state, records = _burn_combs(bandwidth, params, tls, comb, bin_width,
                                 others, grid_lo)
    final = EnsembleState(state.grid, state.weight, *records[-1].T)
    spec = absorption_spectrum(final, params)
    margin = min(bandwidth / 2.0, 150e6)
    sub, sl = spec.grid.subgrid(-margin, margin)
    section = AbsorptionSpectrum(grid=sub, od=spec.od[sl].copy())
    return analyze_comb(section, comb.spacing), section


def _fit_or_reason(model, x, y, sigma=None) -> tuple:
    """Fit, or record why the fit could not run.

    Returns ``(FitResult or None, summary dict)``; a library error becomes a
    non-converged summary whose stop reason is the error, so one bad curve is
    recorded instead of ending the scenario.
    """
    try:
        res = fit_curve(model, x, y, sigma=sigma)
    except AfcSimError as exc:
        return None, {"converged": False,
                      "stop_reason": f"{type(exc).__name__}: {exc}"}
    return res, res.as_dict()


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def run_fig2(config: ExperimentConfig, write: bool = True) -> dict:
    """Hole decays at each field, double-exponential fits, and the
    field-dependence fit of the long-decay rate.

    Each field is burned, relaxed and read out alone, with its own seed
    spawned from ``config.seed``; then the holes of every field and delay
    are measured as one stack, with one set-up and one batch of fits.  Each
    curve is bit-identical to :func:`readout.hole_decay_experiment` at that
    field with that seed.

    Each field's fit record in ``double_exp_fits`` carries its ``converged``
    flag and ``stop_reason``; ``dropped_delays`` lists the delays whose hole
    sank below the noise floor.  Only converged fields enter the flip-flop
    fit (``flipflop_fields_gauss``) and have fitted lifetimes; the others
    read ``None``.
    """
    cfg = config.fig2
    params = config.material.with_(beta_zeeman=cfg.beta_zeeman,
                                   beta_shf=cfg.beta_shf)
    delays = np.geomspace(cfg.delay_min, cfg.delay_max, cfg.n_delays)
    seeds = np.random.SeedSequence(config.seed).spawn(len(cfg.fields_gauss))

    dexp = model_double_exponential()

    # every field's holes are measured as one stack
    curves = dict(zip(cfg.fields_gauss, _hole_decays(
        [f * 1e-4 for f in cfg.fields_gauss], delays, params, config.tls, seeds,
        burn_power=cfg.burn_power, detuning=cfg.detuning, hole_width=cfg.hole_width,
        burn_duration=cfg.burn_duration, span=cfg.span, noise_rel=cfg.noise_rel,
        repeats=cfg.repeats, bin_width=config.bin_width)))
    fits, records = {}, {}
    for field_g, curve in curves.items():
        sigma = curve.sigmas if cfg.noise_rel > 0 else None
        fits[field_g], records[field_g] = _fit_or_reason(
            dexp, curve.delays, curve.areas, sigma=sigma)

    # a lifetime left at the edge of its range (1/t_long ~ 0) would silently
    # bias Gamma_s and gamma_s, so only converged fields enter this fit
    good = [f for f in cfg.fields_gauss if records[f]["converged"]]
    ff_fit, ff_record = None, None
    if len(good) >= 2:
        ff_model = model_flipflop_field(alpha=params.alpha_ff,
                                        g_factor=params.g_factor,
                                        temperature=params.temperature)
        ff_fit, ff_record = _fit_or_reason(
            ff_model, np.array(good) * 1e-4,
            np.array([1.0 / fits[f]["t_long"] for f in good]))

    b_fields = np.array([f * 1e-4 for f in cfg.fields_gauss])
    summary = {
        "fields_gauss": list(cfg.fields_gauss),
        "t_long_fitted_s": [fits[f]["t_long"] if f in good else None
                            for f in cfg.fields_gauss],
        "t_short_fitted_s": [fits[f]["t_short"] if f in good else None
                             for f in cfg.fields_gauss],
        "t_long_model_s": [flipflop_lifetime(b, params.temperature, params)
                           for b in b_fields],
        "double_exp_fits": {str(f): records[f] for f in cfg.fields_gauss},
        "dropped_delays": {str(f): list(curves[f].dropped)
                           for f in cfg.fields_gauss},
        "flipflop_fields_gauss": good,
        "flipflop_fit": ff_record,
    }
    if write:
        files = {f"fig2_decay_{int(f)}G.csv": _render(curves[f], "csv")
                 for f in cfg.fields_gauss}
        files["fig2_decays.svg"] = svgplot.line_plot(
            [(curves[f].delays, curves[f].areas, f"{int(f)} G")
             for f in cfg.fields_gauss],
            xlabel="delay (s)", ylabel="hole area (OD Hz)",
            title="spectral hole decay")
        _write_scenario(config, "fig2", summary, files)
    summary["curves"] = curves
    summary["fits"] = fits
    summary["flipflop_fit_result"] = ff_fit
    return summary


def run_fig4(config: ExperimentConfig, write: bool = True) -> dict:
    """Background absorption of the comb troughs versus comb bandwidth."""
    cfg = config.fig4
    params = config.material.with_(peak_od=cfg.peak_od)
    tls = config.tls if cfg.tls_enabled else TlsParams.disabled()

    rows = []
    for bw_ghz in cfg.bandwidths_ghz:
        metrics, _ = _comb_background(bw_ghz * 1e9, params, tls, cfg,
                                      config.bin_width)
        rows.append((bw_ghz, metrics))

    d0s = [m.d0 for _, m in rows]
    summary = {
        "bandwidths_ghz": [r[0] for r in rows],
        "d0": d0s,
        "d_peak": [m.d_peak for _, m in rows],
        "tooth_fwhm_hz": [m.tooth_fwhm for _, m in rows],
        "finesse": [m.finesse for _, m in rows],
        "tls_enabled": cfg.tls_enabled,
        "monotone_nondecreasing": bool(np.all(np.diff(d0s) >= 0)),
        "d0_spread": float(max(d0s) - min(d0s)),
    }
    if write:
        _write_scenario(config, "fig4", summary, {
            "fig4_background.csv": _table_csv(
                "bandwidth_ghz,d0,d_peak,tooth_fwhm_hz,finesse",
                [(bw, m.d0, m.d_peak, m.tooth_fwhm, m.finesse) for bw, m in rows]),
            "fig4_background.svg": svgplot.line_plot(
                [([r[0] for r in rows], d0s, "")],
                xlabel="comb bandwidth (GHz)", ylabel="background d0 (OD)",
                title="trough background vs bandwidth"),
        })
    summary["metrics"] = rows
    return summary


def run_table1(config: ExperimentConfig, write: bool = True) -> dict:
    """Back-fill scan: background of the measured comb for each pair
    detuning, plus the artificial positive control of the overlap
    mechanism."""
    cfg = config.table1
    params = config.material.with_(peak_od=cfg.peak_od)

    d0s = []
    for det_ghz in cfg.detunings_ghz:
        det = det_ghz * 1e9
        others = () if det == 0 else ((cfg.bandwidth, -det),)
        metrics, _ = _comb_background(cfg.bandwidth, params, config.tls, cfg,
                                      config.bin_width, others)
        d0s.append(metrics.d0)

    summary = {
        "detunings_ghz": list(cfg.detunings_ghz),
        "d0": d0s,
        "d0_scatter": float(max(d0s) - min(d0s)),
    }

    if cfg.run_control:
        # artificial positive control, isolating the overlap mechanism: the
        # displaced absorption is made compact (small static spin
        # broadening), long-lived (small flip-flop coefficient) and doubled
        # in comb mass, landing exactly on the measured comb; the unrelated
        # TLS channels are switched off in both legs of the comparison
        b_ctrl = cfg.control_zeeman_ghz * 1e9 / zeeman_splitting(1.0, params.g_factor)
        ctrl_params = params.with_(
            b_field=b_ctrl,
            gamma_spin_static=cfg.control_gamma_static,
            alpha_ff=cfg.control_alpha_ff)
        ctrl_tls = TlsParams.disabled()
        det = cfg.control_zeeman_ghz * 1e9
        grid_lo = -det - cfg.control_bandwidth2 / 2.0 - 100e6
        ref, _ = _comb_background(cfg.bandwidth, ctrl_params, ctrl_tls, cfg,
                                  config.bin_width, grid_lo=grid_lo)
        overlap, _ = _comb_background(
            cfg.bandwidth, ctrl_params, ctrl_tls, cfg, config.bin_width,
            ((cfg.control_bandwidth2, -det),),
            grid_lo=grid_lo)
        summary["control"] = {
            "d0_reference": ref.d0,
            "d0_overlap": overlap.d0,
            "increase": overlap.d0 - ref.d0,
        }

    if write:
        _write_scenario(config, "table1", summary, {
            "table1_backfill.csv": _table_csv(
                "detuning_ghz,d0", zip(cfg.detunings_ghz, d0s)),
        })
    return summary


def _fig5_point(config: ExperimentConfig, pump_power: float) -> tuple:
    cfg = config.fig5
    params = config.material
    lo = cfg.center - cfg.separation / 2.0 - 100e6
    hi = cfg.center + cfg.separation / 2.0 + 100e6
    grid = make_grid(lo, hi, config.bin_width)
    state = init_equilibrium_state(grid, params)
    seq = build_two_hole_sequence(
        separation=cfg.separation, hole_width=cfg.hole_width,
        pump_power=pump_power, probe_power=cfg.probe_power,
        center=cfg.center, burn_duration=cfg.duration, dark_after=cfg.wait)
    final = evolve(state, seq, params, config.tls, [seq.total_duration])[0]
    spec = absorption_spectrum(final, params)
    radius = cfg.separation / 2.0 - cfg.hole_width
    pump = measure_hole(spec, cfg.center - cfg.separation / 2.0, search_radius=radius)
    probe = measure_hole(spec, cfg.center + cfg.separation / 2.0, search_radius=radius)
    return pump, probe


def run_fig5(config: ExperimentConfig, write: bool = True) -> dict:
    """Pump-probe hole metrology versus pump power."""
    cfg = config.fig5
    rows = [(p, *_fig5_point(config, p)) for p in cfg.pump_powers]

    probe_depths = [probe.depth for _, _, probe in rows]
    probe_widths = [probe.fwhm for _, _, probe in rows]
    pump_depths = [pump.depth for _, pump, _ in rows]
    summary = {
        "pump_powers_w": list(cfg.pump_powers),
        "pump_depth": pump_depths,
        "pump_fwhm_hz": [pump.fwhm for _, pump, _ in rows],
        "probe_depth": probe_depths,
        "probe_fwhm_hz": probe_widths,
        "probe_depth_ratio_min_over_max": probe_depths[0] / probe_depths[-1],
        "probe_width_growth_hz": probe_widths[-1] - probe_widths[0],
        "pump_rel_drop": 1.0 - pump_depths[-1] / pump_depths[0],
        "probe_rel_drop": 1.0 - probe_depths[-1] / probe_depths[0],
    }
    if write:
        _write_scenario(config, "fig5", summary, {
            "fig5_holes.csv": _table_csv(
                "pump_power_w,pump_depth,pump_fwhm_hz,probe_depth,probe_fwhm_hz",
                [(p, pump.depth, pump.fwhm, probe.depth, probe.fwhm)
                 for p, pump, probe in rows]),
            "fig5_holes.svg": svgplot.line_plot(
                [(cfg.pump_powers, pump_depths, "pump depth"),
                 (cfg.pump_powers, probe_depths, "probe depth")],
                xlabel="pump power (W)", ylabel="hole depth (OD)",
                title="pump-probe hole depths"),
        })
    summary["rows"] = rows
    return summary


def run_efficiency(config: ExperimentConfig, write: bool = True) -> dict:
    """Full comb pipeline at the nominal optical depth, metric extraction
    and forward-recall efficiency."""
    cfg = config.efficiency
    params = config.material.with_(peak_od=cfg.peak_od)
    metrics, section = _comb_background(cfg.bandwidth, params, config.tls, cfg,
                                        config.bin_width)
    eta = afc_efficiency(metrics)
    summary = {
        "comb": metrics.as_dict(),
        "efficiency": eta,
        "efficiency_percent": 100.0 * eta,
        "storage_time_s": storage_time(cfg.spacing),
    }
    if write:
        _write_scenario(config, "efficiency", summary, {
            "efficiency_comb_section.csv": _render(section, "csv"),
            "efficiency_comb_section.svg": _render(section, "svg"),
        })
    summary["metrics"] = metrics
    summary["section"] = section
    return summary


# name -> runner; ``run_all`` and the CLI's ``reproduce`` choices read it
SCENARIOS = {"fig2": run_fig2, "fig4": run_fig4, "table1": run_table1,
             "fig5": run_fig5, "efficiency": run_efficiency}


def run_all(config: ExperimentConfig, write: bool = True) -> dict:
    """Run every scenario in :data:`SCENARIOS`; returns ``{name: summary}``."""
    return {name: run(config, write=write) for name, run in SCENARIOS.items()}


# ---------------------------------------------------------------------------
# TLS calibration
# ---------------------------------------------------------------------------

def calibrate_tls(config: Optional[ExperimentConfig] = None) -> TlsParams:
    """Fix the TLS coefficients from the two pump-probe observables.

    Between fig5's lowest and highest pump power the probe hole's depth
    falls threefold and its width grows by 5 MHz.  Both couplings move both
    observables (spectral diffusion also shallows the hole), so they are
    solved for together: damped Newton on ``(ln kappa_fill, ln kappa_diff)``
    with the two relative misses as residuals and a forward-difference 2x2
    Jacobian (Dennis & Schnabel, 1983, ch. 6).  Each step is capped at 3 in either logarithm and halved, up
    to five times, until the residual norm falls; a trial point where fig5
    raises an :class:`AfcSimError` counts as no fall.  The solve starts at
    ``config.tls`` (a coupling of 0 at 1.5e4 or 4e18) and ends once both
    misses are within 1e-4.  Raises :class:`CalibrationFailed` when it
    cannot get there: no halving helps, ten steps do not suffice, or fig5
    fails at the start or at a difference point.
    """
    config = config or default_config()
    powers = config.fig5.pump_powers

    def misses(x):
        probe_cfg = replace(config, tls=TlsParams(*np.exp(x).tolist()))
        _, lo = _fig5_point(probe_cfg, powers[0])
        _, hi = _fig5_point(probe_cfg, powers[-1])
        return np.array([lo.depth / hi.depth / 3.0, (hi.fwhm - lo.fwhm) / 5e6]) - 1.0

    x = np.log([config.tls.kappa_fill or 1.5e4, config.tls.kappa_diff or 4e18])
    try:
        r = misses(x)
        for _ in range(10):
            if np.max(np.abs(r)) <= 1e-4:
                return TlsParams(*np.exp(x).tolist())
            jac = np.column_stack([misses(x + 1e-3 * e) - r for e in np.eye(2)]) / 1e-3
            step = np.linalg.solve(jac, -r)
            step *= min(1.0, 3.0 / np.max(np.abs(step)))
            for _ in range(6):
                try:
                    trial = misses(x + step)
                    if np.linalg.norm(trial) < np.linalg.norm(r):
                        break
                except AfcSimError:
                    pass
                step /= 2.0
            else:
                break
            x, r = x + step, trial
    except (AfcSimError, np.linalg.LinAlgError) as exc:
        raise CalibrationFailed(
            f"no Newton step from kappa_fill={np.exp(x[0]):.4g}, "
            f"kappa_diff={np.exp(x[1]):.4g}: {exc}") from exc
    raise CalibrationFailed(
        f"stopped at kappa_fill={np.exp(x[0]):.4g}, kappa_diff={np.exp(x[1]):.4g}, "
        f"with the probe depth ratio off by {r[0]:+.2%} and its width growth by {r[1]:+.2%}")
