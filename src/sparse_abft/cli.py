"""Command-line front end.

Exit codes: 0 success (run: no round flagged), 1 run flagged a round,
2 parse/config/usage error, 3 I/O error, 4 shape error.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import json
import sys

from .campaign import CampaignConfig, WorkloadSpec, aggregate, render_stats_table, run_campaigns
from .config import ArrayConfig, load_config, read_json
from .driver import run_multiplication
from .faults import FaultSpec
from .matio import read_dense, read_packed, write_dense, write_packed
from .registers import DECIMAL, parse_register
from .sparsity import ShapeError, SparsityPattern, prune_magnitude

EXIT_OK = 0
EXIT_FLAGGED = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_SHAPE = 4


def _pattern_arg(text: str) -> SparsityPattern:
    try:
        return SparsityPattern.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _decimal_arg(text: str, field: str = "") -> int:
    # plain ASCII decimal like register indexes (int() takes 1_0, +5); '-' reaches range checks
    if not DECIMAL.fullmatch(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"{field}{text!r} is not a decimal integer")
    return int(text)


def _fault_range_arg(text: str):
    try:
        lo, hi = map(_decimal_arg, text.split("..") if ".." in text else (text, text))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad fault range {text!r} (expected 'lo..hi')") from exc
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"bad fault range {text!r}")
    return lo, hi


def _inject_arg(text: str) -> FaultSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"bad injection {text!r} (expected cycle:register:bit)")
    try:
        cycle, bit = _decimal_arg(parts[0], "cycle "), _decimal_arg(parts[2], "bit ")
        return FaultSpec(cycle=cycle, register=parse_register(parts[1]), bit=bit)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad injection {text!r}: {exc}") from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_prune(args) -> int:
    dense = read_dense(args.infile)
    packed = prune_magnitude(dense, args.pattern)
    write_packed(args.outfile, packed)
    kept = int(packed.counts.sum())
    total = dense.rows * dense.cols
    print(f"kept {kept} non-zeros of {total} elements ({total - kept} zeroed)")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.trace_out and not args.trace:
        raise ValueError("--trace-out needs --trace: with no register watched it writes nothing")
    cfg = load_config(args.config) if args.config else ArrayConfig()
    a = read_dense(args.a)
    w = read_packed(args.w)
    if w.pattern != cfg.pattern:
        cfg = dataclasses.replace(cfg, pattern=w.pattern)

    watch = None
    trace_fh = None
    if args.trace:
        watch = [parse_register(name) for name in args.trace.split(",")]
        trace_fh = open(args.trace_out, "w", encoding="utf-8") if args.trace_out else sys.stdout
    try:
        run = run_multiplication(cfg, a, w, faults=args.inject, watch=watch, trace_sink=trace_fh)
    finally:
        if trace_fh is not None and trace_fh is not sys.stdout:
            trace_fh.close()

    write_dense(args.out, run.outputs)
    report = {
        "config": cfg.to_json_dict(),
        "output_path": args.out,
        "rounds": [r.to_json_dict() for r in run.rounds],
        "verdict": "flagged" if run.flagged else "clean",
        "total_cycles": run.total_cycles,
        "injected": [f.to_json_dict() for f in args.inject],
    }
    if args.report:
        _dump_json(args.report, report)
    flagged_rounds = sum(1 for r in run.rounds if r.flag)
    print(f"{len(run.rounds)} checksum rounds, {flagged_rounds} flagged -> {report['verdict']}")
    return EXIT_FLAGGED if run.flagged else EXIT_OK


def cmd_campaign(args) -> int:
    raw = read_json(args.config) if args.config else {}
    cfg = ArrayConfig.from_json_dict(raw)
    if args.sparsity is not None:
        cfg = dataclasses.replace(cfg, pattern=args.sparsity)
    workload = WorkloadSpec.from_json_dict(raw.get("workload", {}))
    lo, hi = args.faults
    ccfg = CampaignConfig(
        array=cfg,
        campaigns=args.campaigns,
        fault_lo=lo,
        fault_hi=hi,
        master_seed=args.seed,
        workload=workload,
    )
    outcomes = run_campaigns(ccfg)
    stats = aggregate(outcomes)
    class_hits = collections.Counter(
        fault.register.kind.name.lower() for o in outcomes for fault in o.faults)
    a_rows, k, cols = workload.synthetic_shape(cfg)
    report = {
        "config_echo": {
            **cfg.to_json_dict(),
            "campaigns": args.campaigns,
            "faults": ccfg.fault_regime,
            "seed": args.seed,
            "workload": {"kind": workload.kind, "a_rows": a_rows, "k": k, "cols": cols},
        },
        "totals": {
            "campaigns": stats.total,
            "faults_injected": class_hits.total(),
        },
        "categories": stats.counts,
        "percentages": stats.percentages(),
        "paper_compat": stats.percentages(paper_compat=True),
        "fault_class_hits": class_hits,
        "per_campaign": [o.to_json_dict() for o in outcomes],
    }
    if args.report:
        _dump_json(args.report, report)
    print(render_stats_table(stats, ccfg, paper_compat=args.paper_compat))
    return EXIT_OK


@functools.cache     # parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-abft",
        description="N:M sparse systolic tensor array simulator with online checksum checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prune = sub.add_parser("prune", help="prune a dense matrix to N:M structure and pack it")
    p_prune.add_argument("--pattern", type=_pattern_arg, required=True, metavar="N:M")
    p_prune.add_argument("--in", dest="infile", required=True, metavar="DENSE.mat")
    p_prune.add_argument("--out", dest="outfile", required=True, metavar="PACKED.smat")
    p_prune.set_defaults(func=cmd_prune)

    p_run = sub.add_parser("run", help="run one multiplication with checksum checking")
    p_run.add_argument("--config", metavar="CFG.json")
    p_run.add_argument("--a", required=True, metavar="A.mat")
    p_run.add_argument("--w", required=True, metavar="W.smat")
    p_run.add_argument("--out", required=True, metavar="C.mat")
    p_run.add_argument("--report", metavar="REPORT.json")
    p_run.add_argument("--inject", type=_inject_arg, action="append", default=[],
                       metavar="CYCLE:REG:BIT")
    p_run.add_argument("--trace", metavar="REG[,REG...]")
    p_run.add_argument("--trace-out", metavar="TRACE.csv")
    p_run.set_defaults(func=cmd_run)

    p_camp = sub.add_parser("campaign", help="run seeded fault-injection campaigns")
    p_camp.add_argument("--config", metavar="CFG.json")
    p_camp.add_argument("--campaigns", type=_decimal_arg, required=True, metavar="K")
    p_camp.add_argument("--faults", type=_fault_range_arg, default=(1, 1), metavar="LO..HI")
    p_camp.add_argument("--sparsity", type=_pattern_arg, metavar="2:4|1:4")
    p_camp.add_argument("--seed", type=_decimal_arg, default=0, metavar="S")
    p_camp.add_argument("--report", metavar="STATS.json")
    p_camp.add_argument("--paper-compat", action="store_true",
                        help="print the four-category table (benign folded into silent)")
    p_camp.set_defaults(func=cmd_campaign)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # also MatrixFormatError and SparsityViolationError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
