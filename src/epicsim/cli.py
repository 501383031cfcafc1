"""Command-line experiment runner.

Exit codes: 0 on success, 1 when a deployment handshake times out or a live
probe loses every packet, 2 on a validation error, 3 when --enforce-kpi is
set and a KPI verdict failed.  Set EPICSIM_LOG=off|events|packets to control
trace verbosity on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import orchestrator
from .livenet import EchoServer, LiveEndpoint, ProbeLost, live_probe
from .model import CapacityError, ValidationError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_VALIDATION = 2
EXIT_KPI = 3


def _add_scenario(p: argparse.ArgumentParser):
    p.add_argument("--scenario", required=True, help="scenario JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epicsim",
                                     description="deterministic edge-rendering offload testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write its KPI report")
    _add_scenario(run)
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help="report output file (default: stdout)")
    run.add_argument("--enforce-kpi", action="store_true",
                     help="exit 3 unless every KPI verdict passes")

    swp = sub.add_parser("sweep", help="re-run a scenario over a range of one parameter")
    _add_scenario(swp)
    swp.add_argument("--param", required=True, help="dotted config path, e.g. ladder.bpp")
    swp.add_argument("--values", required=True,
                     help="comma-separated JSON values, e.g. 0.4,0.8 or true,false")
    swp.add_argument("--out", default=None, help="JSON results file (default: stdout table)")

    load = sub.add_parser("loadtest", help="largest user count meeting the budgets")
    _add_scenario(load)
    load.add_argument("--rtt-budget-ms", type=float, default=None,
                      help="rtt_p95 budget (default: the scenario's budgets.rtt_p95)")
    load.add_argument("--loss-budget", type=float, default=None,
                      help="frame loss budget (default: the scenario's budgets.loss)")
    load.add_argument("--max-users", type=int, default=16)

    stress = sub.add_parser("stresstest", help="smallest user count that congests the network")
    _add_scenario(stress)
    stress.add_argument("--max-users", type=int, default=16)

    val = sub.add_parser("validate", help="validate a scenario file")
    _add_scenario(val)

    echo = sub.add_parser("live-echo", help="run a UDP echo server until interrupted")
    echo.add_argument("--port", type=int, required=True)
    echo.add_argument("--host", default="127.0.0.1")
    echo.add_argument("--reflect-fragments", action="store_true")

    probe = sub.add_parser("live-probe", help="measure loopback RTT against a live echo server")
    probe.add_argument("--addr", required=True, help="host:port of the echo server")
    probe.add_argument("--count", type=int, required=True)
    probe.add_argument("--interval-us", type=int, default=1_000)

    return parser


def _cmd_run(args) -> int:
    cfg = orchestrator.load_scenario(args.scenario)
    if args.seed is not None:
        doc = dict(cfg.raw)
        doc["seed"] = args.seed
        cfg = orchestrator.parse_scenario(doc)
    result = orchestrator.run_scenario(cfg)
    text = orchestrator.report_to_json(result.report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    report = result.report
    print(f"rtt_p95={report.rtt_p95}us pass_rtt={report.pass_rtt} "
          f"throughput={report.aggregate_throughput}b/s pass_bandwidth={report.pass_bandwidth} "
          f"battery_gain={report.battery_gain:.1f}% pass_battery={report.pass_battery}",
          file=sys.stderr)
    if args.enforce_kpi and not (report.pass_rtt and report.pass_bandwidth and report.pass_battery):
        return EXIT_KPI
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = orchestrator.load_scenario(args.scenario)
    try:
        values = [json.loads(v) for v in args.values.split(",") if v]
    except json.JSONDecodeError:
        raise ValidationError(f"--values must be comma-separated JSON values, "
                              f"not {args.values!r:.40}") from None
    results = orchestrator.sweep(cfg, args.param, values)
    rows = [
        {
            "value": value,
            "rtt_p95": r.rtt_p95,
            "motion_to_photon_p95": r.motion_to_photon_p95,
            "aggregate_throughput": r.aggregate_throughput,
            "loss_rate": round(r.loss_rate, 4),
        }
        for value, r in results
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        print(f"{args.param:>24}  rtt_p95(us)  m2p_p95(us)  throughput(b/s)  loss")
        for row in rows:
            print(f"{row['value']!s:>24}  {row['rtt_p95']:>11}  {row['motion_to_photon_p95']:>11}  "
                  f"{row['aggregate_throughput']:>15}  {row['loss_rate']:.4f}")
    return EXIT_OK


def _cmd_loadtest(args) -> int:
    cfg = orchestrator.load_scenario(args.scenario)
    rtt_us = cfg.budgets.rtt_p95 if args.rtt_budget_ms is None else int(args.rtt_budget_ms * 1_000)
    loss = cfg.budgets.loss if args.loss_budget is None else args.loss_budget
    best = orchestrator.load_search(cfg, rtt_us, loss, args.max_users)
    print(f"load_search: {best} users meet rtt_p95 <= {rtt_us / 1_000:g} ms and loss <= {loss:g}")
    return EXIT_OK


def _cmd_stresstest(args) -> int:
    cfg = orchestrator.load_scenario(args.scenario)
    first_bad = orchestrator.stress_search(cfg, args.max_users)
    if first_bad is None:
        print(f"stress_search: no congestion up to {args.max_users} users")
    else:
        print(f"stress_search: congestion first appears at {first_bad} users")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = orchestrator.load_scenario(args.scenario)
    if cfg.mode == orchestrator.EDGE_HOSTED:
        orchestrator.select_node(cfg)  # `run` selects first; no feasible node fails it
    print("scenario OK")
    return EXIT_OK


def _cmd_live_echo(args) -> int:
    server = EchoServer(LiveEndpoint(host=args.host, port=args.port),
                        reflect_fragments=args.reflect_fragments)
    print(f"echo server on {args.host}:{server.port} (Ctrl-C to stop)", file=sys.stderr)
    try:
        server.serve()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def _cmd_live_probe(args) -> int:
    host, colon, port = args.addr.rpartition(":")
    if not (colon and port.isdecimal() and 1 <= int(port) <= 65_535):
        raise ValidationError(f"--addr must be host:port with a port from 1 to 65535, "
                              f"not {args.addr!r:.40}")
    result = live_probe((host or "127.0.0.1", int(port)), args.count, args.interval_us)
    print(f"sent={result.sent} received={result.received} loss={result.loss_rate:.4f}")
    print(f"rtt p50={result.rtt_percentile(50)}us p95={result.rtt_percentile(95)}us "
          f"p99={result.rtt_percentile(99)}us")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "loadtest": _cmd_loadtest,
    "stresstest": _cmd_stresstest,
    "validate": _cmd_validate,
    "live-echo": _cmd_live_echo,
    "live-probe": _cmd_live_probe,
}


def main(argv: list[str] | None = None) -> int:
    try:
        orchestrator.configure_logging_from_env()
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValidationError, CapacityError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except orchestrator.HandshakeTimeout as exc:
        print(f"deployment failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ProbeLost as exc:
        print(f"live probe failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
