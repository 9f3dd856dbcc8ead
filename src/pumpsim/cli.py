"""Command-line front end: scenario in, CSV and report artifacts out.

Exit codes: 0 success, 1 configuration or input validation failure,
2 numerical failure (non-convergence, blow-up, unreachable fit target).
Outputs are deterministic; provenance goes to a ``<out>.meta.json`` sidecar,
never into the data files themselves.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .analysis import (
    compute_dqe,
    fit_eps_opt,
    light_current_curve,
    pulse_metrics,
    pump_sweep,
    write_fit_csv,
    write_sweep_csv,
)
from .dynamics import _write_csv, simulate
from .errors import NumericalError
from .isolation import AttackBudget, builtin_chain, load_chain_csv, verdict
from .model import PumpScenario, pump_rate
from .scenario import BUILTIN_SCENARIOS, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
_MAX_CURRENT_POINTS = 1_000_000  # largest --currents grid


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the validation code on bad flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _float_list(text: str) -> list[float]:
    """argparse type: a comma-separated list of numbers."""
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _parse_current_range(text: str) -> list[float]:
    """'lo:hi:step' in mA to an inclusive list of currents in amperes."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--currents: expected 'lo:hi:step' in mA, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--currents: non-numeric field in {text!r}") from None
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"--currents: non-finite field in {text!r}")
    if step <= 0.0:
        raise ValueError(f"--currents: step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"--currents: empty range {text!r}")
    points = (hi - lo) / step + 1e-9  # inf when the span overflows
    if not points < _MAX_CURRENT_POINTS:
        raise ValueError(
            f"--currents: {text!r} spans more than {_MAX_CURRENT_POINTS} points"
        )
    return [(lo + k * step) * 1e-3 for k in range(int(points) + 1)]


def _write_sidecar(out_path: str, command: str, settings: dict) -> None:
    sidecar = {
        "tool": f"pumpsim {__version__}",
        "command": command,
        "settings": settings,
    }
    with open(out_path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_lines(metrics, clamp_count: int, samples: int) -> list[str]:
    return [
        f"samples={samples}",
        f"clamp_count={clamp_count}",
        f"pulse_energy_j={metrics.pulse_energy:.12g}",
        f"avg_power_w={metrics.avg_power:.12g}",
        f"peak_power_w={metrics.peak_power:.12g}",
        f"peak_time_s={metrics.peak_time:.12g}",
    ]


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    pump = scenario.pump
    if args.pump_mw is not None:
        pump = PumpScenario(p_pump=args.pump_mw * 1e-3, eps_opt=pump.eps_opt)
    config = scenario.sim_config(pump=pump)
    trace = simulate(config)
    trace.to_csv(args.out)
    _write_sidecar(args.out, "simulate", {
        "scenario": str(args.scenario),
        "pump_mw": pump.p_pump / 1e-3,
        "eps_opt": pump.eps_opt,
    })
    metrics = pulse_metrics(trace, scenario.drive)
    for line in _summary_lines(metrics, trace.clamp_count, len(trace.t)):
        print(line)
    print(f"wrote {args.out}")
    return EXIT_OK


def _dqe_for_power(scenario, currents, p_pump_w):
    params = scenario.params
    r_opt = pump_rate(
        PumpScenario(p_pump=p_pump_w, eps_opt=scenario.pump.eps_opt), params
    )
    curve = light_current_curve(params, r_opt, currents)
    eta = compute_dqe(curve, params, currents[0], currents[-1])
    return curve, eta


def cmd_lcurve(args) -> int:
    scenario = load_scenario(args.scenario)
    currents = _parse_current_range(args.currents)
    p_pump_w = args.pump_mw * 1e-3
    curve, eta = _dqe_for_power(scenario, currents, p_pump_w)
    curve.to_csv(args.out)
    _write_sidecar(args.out, "lcurve", {
        "scenario": str(args.scenario),
        "currents_ma": args.currents,
        "pump_mw": p_pump_w / 1e-3,
    })
    print(f"eta_meas={eta:.12g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_dqe(args) -> int:
    scenario = load_scenario(args.scenario)
    currents = _parse_current_range(args.currents)
    powers_mw = args.pump_mw if args.pump_mw else [0.0]
    etas = []
    for p_mw in powers_mw:
        _, eta = _dqe_for_power(scenario, currents, p_mw * 1e-3)
        etas.append(eta)
        print(f"p_pump_mw={p_mw:.12g} eta_meas={eta:.12g}")
    if args.out:
        _write_csv(args.out, "p_pump_w,eta_meas",
                   [[p_mw * 1e-3 for p_mw in powers_mw], etas])
        _write_sidecar(args.out, "dqe", {
            "scenario": str(args.scenario),
            "currents_ma": args.currents,
            "pump_mw": powers_mw,
        })
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    powers = [p * 1e-3 for p in args.pump_mw]
    rows = pump_sweep(scenario, powers)
    write_sweep_csv(rows, args.out)
    _write_sidecar(args.out, "sweep", {
        "scenario": str(args.scenario),
        "pump_mw": [p / 1e-3 for p in powers],
    })
    for row in rows:
        print(f"p_pump_w={row.p_pump_w:.12g} "
              f"norm_pulse_energy={row.norm_pulse_energy:.12g} "
              f"norm_avg_power={row.norm_avg_power:.12g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    scenario = load_scenario(args.scenario)
    target_p = args.pump_mw * 1e-3
    result = fit_eps_opt(scenario, target_p, args.target_ratio)
    print(f"eps_opt={result.eps_opt:.12g}")
    print(f"residual={result.residual:.12g}")
    print(f"bracket_lo={result.bracket_lo:.12g}")
    print(f"bracket_hi={result.bracket_hi:.12g}")
    print(f"evaluations={result.evaluations}")
    if args.out:
        write_fit_csv(result, args.out)
        _write_sidecar(args.out, "fit", {
            "scenario": str(args.scenario),
            "pump_mw": target_p / 1e-3,
            "target_ratio": args.target_ratio,
        })
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_budget(args) -> int:
    chain = load_chain_csv(args.chain) if args.chain else builtin_chain()
    budget = AttackBudget(attack_power_w=args.attack_w, safe_power_w=args.safe_w)
    report = verdict(chain, budget)
    sys.stdout.write(report.as_text())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.as_text())
        _write_sidecar(args.out, "budget", {
            "chain": str(args.chain) if args.chain else "builtin",
            "attack_w": args.attack_w,
            "safe_w": args.safe_w,
        })
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pumpsim",
        description=(
            "Simulate a gain-switched laser diode under an optical-pumping "
            "attack and audit transmitter isolation budgets."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"pumpsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument("--scenario", default="default",
                       help="scenario file path or builtin name "
                            f"({', '.join(BUILTIN_SCENARIOS)})")

    p = sub.add_parser("simulate", help="integrate one run and write the trace",
                       description="Write a t_s,n,q,p_w trace CSV and print "
                                   "the pulse summary.")
    add_scenario(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--pump-mw", type=float, default=None,
                   help="override the scenario pump power (mW)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lcurve", help="steady-state light-current curve")
    add_scenario(p)
    p.add_argument("--out", required=True, help="output CSV path (i_a,p_w)")
    p.add_argument("--currents", default="7:25:0.5",
                   help="current grid lo:hi:step in mA")
    p.add_argument("--pump-mw", type=float, default=0.0,
                   help="cw pump power in mW (default 0)")
    p.set_defaults(func=cmd_lcurve)

    p = sub.add_parser("dqe", help="differential quantum efficiency vs pump power")
    add_scenario(p)
    p.add_argument("--out", default=None, help="optional CSV (p_pump_w,eta_meas)")
    p.add_argument("--currents", default="7:25:0.5",
                   help="current grid lo:hi:step in mA; also the fit window")
    p.add_argument("--pump-mw", type=_float_list, default=None,
                   help="comma-separated cw pump powers in mW")
    p.set_defaults(func=cmd_dqe)

    p = sub.add_parser("sweep", help="normalized pulse energy/average power "
                                     "over a pump power grid")
    add_scenario(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--pump-mw", type=_float_list, required=True,
                   help="comma-separated pump powers in mW, ascending")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="calibrate the pumping efficiency to a "
                                   "target pulse-energy ratio")
    add_scenario(p)
    p.add_argument("--out", default=None, help="optional fit report CSV")
    p.add_argument("--pump-mw", type=float, default=1.6,
                   help="pump power of the target point in mW (default 1.6)")
    p.add_argument("--target-ratio", type=float, default=1.10,
                   help="normalized pulse energy to reproduce (default 1.10)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("budget", help="isolation chain verdict")
    p.add_argument("--chain", default=None,
                   help="chain CSV (name,loss_db); default: bundled chain")
    p.add_argument("--attack-w", type=float, default=250.0,
                   help="maximum injectable power in W (default 250)")
    p.add_argument("--safe-w", type=float, default=1.4e-4,
                   help="demonstrated-safe power at the diode in W "
                        "(default 1.4e-4)")
    p.add_argument("--out", default=None, help="optional report path")
    p.set_defaults(func=cmd_budget)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # ScenarioError included
        print(f"pumpsim: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"pumpsim: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"pumpsim: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
