"""Command-line interface.

Verbs:

* ``print-config``                         dump the default configuration
* ``simulate {hole-decay|afc|backfill|pump-probe}``
* ``fit {double-exp|flipflop|dip}``        fit CSV data, report JSON
* ``report efficiency``                    comb pipeline + echo efficiency
* ``reproduce {fig2|fig4|fig5|table1|efficiency|all}`` standard scenario
  bundles, one per entry of ``experiments.SCENARIOS``

Flags take unit suffixes (``--field 350G``, ``--bandwidth 6.4GHz``,
``--spacing 50MHz``, ``--pump-power 0.15mW``).  The output root defaults to
the ``AFCSIM_OUTDIR`` environment variable, then the working directory.
Exits non-zero on any precondition or fit failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments
from .errors import AfcSimError
from .fitting import (
    fit_curve,
    load_curve_csv,
    model_double_exponential,
    model_flipflop_field,
    model_lorentzian_dip,
)
from .units import parse_quantity


def _load_config(args) -> experiments.ExperimentConfig:
    if getattr(args, "config", None):
        config = experiments.load_config(args.config)
    else:
        config = experiments.default_config()
    if getattr(args, "outdir", None):
        config.outdir = args.outdir
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config


def _add_common(parser):
    parser.add_argument("--config", help="TOML-style config file")
    parser.add_argument("--outdir", help="output directory")
    parser.add_argument("--seed", type=int, help="RNG seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afcsim",
        description="Spectral hole burning and AFC preparation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("print-config", help="dump the default configuration")

    sim = sub.add_parser("simulate", help="run a single scenario")
    sim_sub = sim.add_subparsers(dest="scenario", required=True)

    p = sim_sub.add_parser("hole-decay", help="burn, wait, read decay curve")
    _add_common(p)
    p.add_argument("--field", default="350G", help="magnetic field (e.g. 350G)")
    p.add_argument("--power", help="burn power (e.g. 2uW)")
    p.add_argument("--detuning", help="burn detuning (e.g. 250MHz)")

    p = sim_sub.add_parser("afc", help="burn and analyse one comb")
    _add_common(p)
    p.add_argument("--bandwidth", default="6.4GHz")
    p.add_argument("--spacing", default="50MHz")
    p.add_argument("--od", type=float, help="peak optical depth")
    p.add_argument("--power", help="total pump power (e.g. 0.5mW)")
    p.add_argument("--no-tls", action="store_true", help="disable the TLS channels")

    p = sim_sub.add_parser("backfill", help="comb pair at one detuning")
    _add_common(p)
    p.add_argument("--detuning", default="1.0GHz", help="pair centre detuning")

    p = sim_sub.add_parser("pump-probe", help="two-hole burn at one pump power")
    _add_common(p)
    p.add_argument("--pump-power", default="0.15mW")
    p.add_argument("--probe-power", help="probe power (default from config)")

    fit = sub.add_parser("fit", help="fit CSV data (x,y[,sigma])")
    fit_sub = fit.add_subparsers(dest="model", required=True)
    for name, hlp in (("double-exp", "two-exponential decay"),
                      ("flipflop", "grating relaxation rate vs field"),
                      ("dip", "Lorentzian absorption dip")):
        p = fit_sub.add_parser(name, help=hlp)
        p.add_argument("data", help="CSV file with x,y[,sigma] columns")
        p.add_argument("--out", help="write the JSON report here")
        if name == "flipflop":
            p.add_argument("--temperature", default="0.7K")
            p.add_argument("--alpha", type=float, default=1e9)
            p.add_argument("--g-factor", type=float, default=15.13)

    rep = sub.add_parser("report", help="derived reports")
    rep_sub = rep.add_subparsers(dest="what", required=True)
    p = rep_sub.add_parser("efficiency", help="comb pipeline + echo efficiency")
    _add_common(p)

    p = sub.add_parser("reproduce", help="run a standard scenario bundle")
    p.add_argument("target", choices=(*experiments.SCENARIOS, "all"))
    _add_common(p)

    return parser


def _print_json(doc) -> None:
    """Print a summary as the package writes every JSON text."""
    sys.stdout.write(experiments.json_text(doc, sort_keys=False))


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    if args.scenario == "hole-decay":
        field_t = parse_quantity(args.field, "field")
        fig2 = replace(config.fig2, fields_gauss=(field_t * 1e4,))
        if args.power:
            fig2 = replace(fig2, burn_power=parse_quantity(args.power, "power"))
        if args.detuning:
            fig2 = replace(fig2, detuning=parse_quantity(args.detuning, "frequency"))
        config.fig2 = fig2
        summary = experiments.run_fig2(config)
        _print_json({k: summary[k] for k in
                     ("fields_gauss", "t_long_fitted_s", "t_short_fitted_s")})
    elif args.scenario == "afc":
        eff = config.efficiency
        eff = replace(eff, bandwidth=parse_quantity(args.bandwidth, "frequency"),
                      spacing=parse_quantity(args.spacing, "frequency"))
        if args.od is not None:
            eff = replace(eff, peak_od=args.od)
        if args.power:
            eff = replace(eff, total_power=parse_quantity(args.power, "power"))
        config.efficiency = eff
        if args.no_tls:
            from .relaxation import TlsParams
            config.tls = TlsParams.disabled()
        summary = experiments.run_efficiency(config)
        _print_json(summary["comb"] | {"efficiency_percent": summary["efficiency_percent"]})
    elif args.scenario == "backfill":
        det = parse_quantity(args.detuning, "frequency")
        config.table1 = replace(config.table1, detunings_ghz=(det / 1e9,),
                                run_control=False)
        summary = experiments.run_table1(config)
        _print_json(summary)
    elif args.scenario == "pump-probe":
        fig5 = replace(config.fig5,
                       pump_powers=(parse_quantity(args.pump_power, "power"),))
        if args.probe_power:
            fig5 = replace(fig5, probe_power=parse_quantity(args.probe_power, "power"))
        config.fig5 = fig5
        summary = experiments.run_fig5(config)
        _print_json({k: summary[k] for k in
                     ("pump_powers_w", "pump_depth", "pump_fwhm_hz",
                      "probe_depth", "probe_fwhm_hz")})
    return 0


def _cmd_fit(args) -> int:
    x, y, sigma = load_curve_csv(args.data)
    if args.model == "double-exp":
        model = model_double_exponential()
    elif args.model == "flipflop":
        model = model_flipflop_field(
            alpha=args.alpha, g_factor=args.g_factor,
            temperature=parse_quantity(args.temperature, "temperature"))
    else:
        model = model_lorentzian_dip()
    result = fit_curve(model, np.asarray(x), np.asarray(y), sigma=sigma)
    report = experiments.json_text(result.as_dict(), sort_keys=False)
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    return 0 if result.converged else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "print-config":
            sys.stdout.write(experiments.dump_config(experiments.default_config()))
            return 0
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "report":
            config = _load_config(args)
            summary = experiments.run_efficiency(config)
            _print_json(summary["comb"] | {
                "efficiency_percent": summary["efficiency_percent"],
                "storage_time_s": summary["storage_time_s"]})
            return 0
        if args.command == "reproduce":
            config = _load_config(args)
            experiments.SCENARIOS.get(args.target, experiments.run_all)(config)
            print(f"wrote {args.target} artifacts to {config.resolve_outdir()}")
            return 0
    except (AfcSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
