"""Benchmark of the sparse-abft simulator: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` beside
this directory. Human-readable blocks (machine, metrics, simulated
statistics, correctness) go to standard output, followed by one JSON line:
with ``--trace 0`` every end-to-end metric of ``BENCHMARK.json``, with
``--trace 1`` every per-layer metric. Full results, and the spans of a traced
run, are written under ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
STEP_PROBE_CYCLES = 600
# Reported times are scaled to a host on which host_probe_s() takes this long.
PROBE_REFERENCE_S = 0.005
_PROBE_DATA = np.arange(8 * 32 * 4, dtype=np.int64).reshape(8, 32, 4)
_PROBE_INDEX = np.arange(8 * 32 * 2).reshape(8, 32, 2) % 4
_PROBE_ROWS, _PROBE_COLS = np.arange(8)[:, None, None], np.arange(32)[None, :, None]
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sparse_abft; "
                "print(time.perf_counter() - t)")


def import_program() -> None:
    """Import sparse_abft from this checkout's src/, never from elsewhere.

    ``workloads`` and ``tracing`` import sparse_abft at module level, so the
    functions below import them only after this has run.
    """
    sys.path.insert(0, str(SRC))
    try:
        import sparse_abft
    except ImportError as exc:
        raise SystemExit(f"error: cannot import sparse_abft from {SRC}: {exc}")
    if SRC not in Path(sparse_abft.__file__).resolve().parents:
        raise SystemExit(f"error: sparse_abft was imported from {sparse_abft.__file__}, not {SRC}")


def metric_specs() -> dict:
    """Workloads and metrics as BENCHMARK.json names them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest max RSS of this process or any waited-for child (Linux: KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def machine(workers: int, seed: int, seconds: float, workload: str, trace: int) -> dict:
    import sparse_abft

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sparse_abft": sparse_abft.__version__,
        "workers": workers,
        "seed": seed,
        "run_seconds": seconds,
        "workload": workload,
        "trace": trace,
    }


def host_probe_s() -> float:
    """Time of fixed work shaped like one simulated cycle: small NumPy gathers,
    reductions and shifts, plus a Python loop.

    It shares no code with the program, so it moves only with the speed the
    shared host gives this process. That speed drifts by tens of percent
    over minutes, and the program's time moves with it in proportion.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(300):
        picked = _PROBE_DATA[_PROBE_ROWS, _PROBE_COLS, _PROBE_INDEX]
        column = (picked * 3).sum(axis=2)
        shifted = np.empty_like(column)
        shifted[0] = column[0]
        shifted[1:] = column[:-1] + column[1:]
        acc += int(shifted[-1, -1]) & 0xFF
        for r in range(8):
            acc ^= r * i
    return time.perf_counter() - start


def host_factor() -> float:
    """How much slower the host runs now than the reference (median of 3 probes)."""
    return statistics.median(host_probe_s() for _ in range(3)) / PROBE_REFERENCE_S


def import_seconds() -> float:
    """``import sparse_abft`` in a fresh interpreter, timed inside the child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def setup_once(wl, seed: int) -> dict:
    from sparse_abft import registers

    factor = host_factor()
    parts = {"import_s": import_seconds(), "enumerate_s": 0.0}
    # campaigns sample faults over the register map; a run never builds it
    for cfg in wl.configs if wl.campaigns_per_request else ():
        registers.enumerate_registers.cache_clear()
        start = time.perf_counter()
        registers.enumerate_registers(cfg)
        parts["enumerate_s"] += time.perf_counter() - start
    parts.update(wl.setup(seed))
    parts["total_s"] = sum(parts.values())
    parts["host_factor"] = factor
    return parts


class Ledger:
    """Attempted and failed ops, with the first few problems kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run(self, what: str, fn, *args):
        """Call fn; an exception counts as a failed op and returns None."""
        try:
            return fn(*args)
        except Exception as exc:  # any failure of the program is a failed op
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def closed_loop(wl, seed: int, seconds: float, workers: int, ledger: Ledger) -> dict:
    """One client: request, wait, check, repeat until ``seconds`` have passed.

    A host probe runs just before each request; its time over
    PROBE_REFERENCE_S is that request's host factor.
    """
    loop = {"latency_s": [], "cpu_s": [], "matmuls": [], "host_factor": []}
    deadline = time.perf_counter() + seconds
    j = 0
    while True:
        ctx = wl.prepare(seed, j, wl.campaigns_per_request)
        loop["host_factor"].append(host_probe_s() / PROBE_REFERENCE_S)
        ledger.attempted += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        result = ledger.run(f"request {j}", wl.request, ctx, workers)
        t1, c1 = time.perf_counter(), cpu_seconds()
        loop["latency_s"].append(t1 - t0)
        loop["cpu_s"].append(c1 - c0)
        loop["matmuls"].append(wl.matmuls(ctx))
        if result is not None:
            problem = ledger.run(f"check {j}", wl.check, ctx, result)
            if problem:
                ledger.fail(f"request {j}: {problem}")
        j += 1
        if t1 >= deadline:
            break
    return loop


def request_medians(loop: dict, scaled: bool) -> dict:
    """Medians over the loop's requests, each time divided by its host factor if scaled."""
    factors = loop["host_factor"] if scaled else [1.0] * len(loop["latency_s"])
    latency = [t / f for t, f in zip(loop["latency_s"], factors)]
    return {
        "matmuls_per_s": statistics.median(n / t for n, t in zip(loop["matmuls"], latency)),
        "cpu_ms_per_matmul": 1e3 * statistics.median(
            c / f / n for c, f, n in zip(loop["cpu_s"], factors, loop["matmuls"])),
        "request_s_p50": statistics.median(latency),
        "request_s_p90": float(np.percentile(latency, 90)),
    }


def end_to_end(wl, loop: dict, setups: list) -> dict:
    """The gated metrics: host times scaled to the reference host."""
    scaled = request_medians(loop, scaled=True)
    return {
        "matmuls_per_s": scaled["matmuls_per_s"],
        "cpu_ms_per_matmul": scaled["cpu_ms_per_matmul"],
        "sim_cycles_per_s": scaled["matmuls_per_s"] * wl.cycles_per_matmul,
        "request_s_p50": scaled["request_s_p50"],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(s["total_s"] / s["host_factor"] for s in setups),
    }


def step_us_per_cycle(cfg, seed: int) -> float:
    """Raw ``SimState.step(west)`` clock on a loaded tile, untraced."""
    from sparse_abft import systolic
    from workloads import random_operands

    _, w = random_operands(seed, 1, cfg.tile_k, cfg.cols, cfg.pattern)
    state = systolic.SimState(cfg)
    state.load_weights(w)
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << cfg.input_width - 1), (1 << cfg.input_width - 1)
    wests = rng.integers(lo, hi, size=(STEP_PROBE_CYCLES, cfg.rows, cfg.pattern.m))
    start = time.perf_counter()
    for west in wests:
        state.step(west)
    return (time.perf_counter() - start) / STEP_PROBE_CYCLES * 1e6


def traced_layers(wl, seed: int, workers: int, loop: dict, setups: list, ledger: Ledger):
    """Serial ops run untraced and traced in turn; returns (metrics, summary, spans)."""
    import tracing

    tracer = tracing.Tracer()
    untraced_s = traced_s = untraced_cpu = 0.0
    matmuls = 0
    for i in range(wl.serial_requests):
        ctx = wl.prepare(seed, -1 - i, wl.serial_campaigns)
        matmuls += wl.matmuls(ctx)
        ledger.attempted += 2
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.op = i
            c0, t0 = cpu_seconds(), time.perf_counter()
            if traced:
                with tracer:
                    result = ledger.run(f"traced op {i}", wl.request, ctx, 1)
                traced_s += time.perf_counter() - t0
            else:
                result = ledger.run(f"serial op {i}", wl.request, ctx, 1)
                untraced_s += time.perf_counter() - t0
                untraced_cpu += cpu_seconds() - c0
            if result is not None:
                problem = ledger.run(f"check op {i}", wl.check, ctx, result)
                if problem:
                    ledger.fail(f"{'traced' if traced else 'serial'} op {i}: {problem}")

    summary = tracing.summarize(tracer.spans)
    calls, total, counts = summary["calls"], summary["total_s"], tracer.counts

    def mean_ms(*names):
        n = sum(calls[name] for name in names)
        return 1e3 * sum(total[name] for name in names) / n if n else 0.0

    cycles = counts["systolic.cycles"]
    rounds = counts["checker.rounds"]
    step = statistics.median(step_us_per_cycle(cfg, seed) for cfg in wl.configs)
    run_tile = total["systolic.SimState.run_tile"]
    us_per_cycle = 1e6 * run_tile / cycles if cycles else 0.0
    checker_s = sum(t for name, t in total.items() if name.startswith("checker."))
    runs = calls["driver.run_multiplication"]
    campaigns = calls["campaign.run_campaign"]
    serial_mps = matmuls / untraced_s
    pooled = request_medians(loop, scaled=False)
    metrics = {
        "systolic.us_per_cycle": us_per_cycle,
        "systolic.step_us_per_cycle": step,
        "systolic.sched_us_per_cycle": us_per_cycle - step,
        "systolic.load_weights_us": 1e3 * mean_ms("systolic.SimState.load_weights"),
        "systolic.cycles": cycles,
        "checker.us_per_round": 1e6 * checker_s / rounds if rounds else 0.0,
        "checker.rounds": rounds,
        "checker.flagged_rounds": counts["checker.flagged_rounds"],
        "driver.run_ms": mean_ms("driver.run_multiplication"),
        "driver.self_ms": 1e3 * (total["driver.run_multiplication"] - run_tile) / runs if runs else 0.0,
        "tiling.tiles": calls["systolic.SimState.run_tile"],
        "campaign.ms_per_campaign": mean_ms("campaign.run_campaign"),
        "campaign.pool_efficiency": pooled["matmuls_per_s"] / (workers * serial_mps) if campaigns else 0.0,
        "campaign.pool_overhead_cpu_ms": (
            pooled["cpu_ms_per_matmul"] - 1e3 * untraced_cpu / matmuls if campaigns else 0.0),
        "faults.sample_ms": mean_ms("faults.sample_faults"),
        "faults.injected": counts["faults.injected"],
        "faults.array_share": (counts["faults.array"] / counts["faults.injected"]
                               if counts["faults.injected"] else 0.0),
        "registers.enumerate_ms": 1e3 * statistics.median(s["enumerate_s"] for s in setups),
        "oracle.golden_ms": mean_ms("oracle.golden_result"),
        "sparsity.prune_ms": mean_ms("sparsity.prune_magnitude"),
        "sparsity.unpack_ms": mean_ms("sparsity.unpack"),
        "matio.read_ms": 1e3 * (total["matio.read_dense"] + total["matio.read_packed"]) / matmuls,
        "matio.write_ms": 1e3 * (total["matio.write_dense"] + total["matio.write_packed"]) / matmuls,
        "matio.bytes_read": counts["matio.bytes_read"],
        "cli.self_ms": (1e3 * summary["layer_self_s"]["cli"] / calls["cli.main"]
                        if calls["cli.main"] else 0.0),
        "trace.unaccounted_share": (traced_s - summary["root_s"]) / traced_s,
        "trace.overhead_pct": 100 * (traced_s - untraced_s) / untraced_s,
    }
    for layer, self_s in summary["layer_self_s"].items():
        metrics[f"{layer}.self_share"] = self_s / traced_s
    summary.update(traced_s=traced_s, untraced_s=untraced_s, serial_ops=wl.serial_requests,
                   serial_matmuls=matmuls)
    return metrics, summary, tracer.spans


def check_digest(name: str, digest, ledger: Ledger) -> str:
    """Compare the reference report digest with the pinned one; a mismatch fails the op."""
    pinned = json.loads((HERE / "digests.json").read_text()).get(name)
    if digest == pinned:
        return "matches pinned" if pinned else "none pinned (the run report holds output paths)"
    if digest is None:
        return "reference failed"
    ledger.fail(f"reference report digest {digest} != pinned {pinned}")
    return "MISMATCH"


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run the reference and the closed loop (and the traced ops); no printing."""
    import workloads

    workers = len(os.sched_getaffinity(0))
    wl = workloads.WORKLOADS[name](OUT / "work" / name, workers)
    ledger = Ledger()
    setups = [setup_once(wl, seed) for _ in range(SETUP_REPEATS)]
    ledger.attempted += 1
    digest, sim_stats = ledger.run("reference", wl.reference) or (None, None)
    loop = closed_loop(wl, seed, seconds, workers, ledger)
    result = {
        "machine": machine(workers, seed, seconds, name, trace),
        "setup": setups,
        "digest": digest,
        "simulated": sim_stats,
        "loop": loop,
        "ledger": ledger,
        "metrics": end_to_end(wl, loop, setups),
    }
    if trace:
        metrics, summary, spans = traced_layers(wl, seed, workers, loop, setups, ledger)
        result.update(metrics=metrics, trace_summary=summary, spans=spans)
    return result


def print_report(result: dict, specs: dict, digest_state: str) -> None:
    import workloads

    m = result["machine"]
    print("== machine and environment ==")
    print("  " + "  ".join(f"{k}={m[k]}" for k in m))
    print("== setup (median of %d; host s as measured) ==" % len(result["setup"]))
    for key in result["setup"][0]:
        print(f"  {key:<16} {statistics.median(s[key] for s in result['setup']):.4f}")
    kind = "per_layer" if m["trace"] else "end_to_end"
    print(f"== {kind.replace('_', '-')} metrics ("
          f"{'host time as measured' if m['trace'] else 'host time scaled to the reference host'}) ==")
    for spec in specs[kind]:
        value = result["metrics"][spec["name"]]
        print(f"  {spec['name']:<32} {value:>14.6g} {spec['unit']}")
    loop = result["loop"]
    print(f"== closed loop: {len(loop['latency_s'])} requests; host factor median "
          f"{statistics.median(loop['host_factor']):.4f} ==")
    for scaled in (True, False):
        med = request_medians(loop, scaled)
        above = sum(1 for t, f in zip(loop["latency_s"], loop["host_factor"])
                    if t / (f if scaled else 1.0) > med["request_s_p90"])
        print(f"  {'scaled ' if scaled else 'measured'}  " + "  ".join(
            f"{k} {v:.6g}" for k, v in med.items()) + f"  ({above} samples above p90)")
    if m["trace"]:
        s = result["trace_summary"]
        print(f"  serial ops {s['serial_ops']} ({s['serial_matmuls']} multiplications): "
              f"untraced {s['untraced_s']:.3f} s, traced {s['traced_s']:.3f} s")
        print("  layer self time:")
        for layer, self_s in sorted(s["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<10} {1e3 * self_s:10.2f} ms  {100 * self_s / s['traced_s']:6.2f}%")
        unaccounted = s["traced_s"] - s["root_s"]
        print(f"    {'(none)':<10} {1e3 * unaccounted:10.2f} ms  "
              f"{100 * unaccounted / s['traced_s']:6.2f}%")
    print(f"== simulated statistics (deterministic; reference seed {workloads.REFERENCE_SEED}; "
          "host-independent) ==")
    print("  model not validated against hardware; paper figures are the source's reports")
    for group, stats in (result["simulated"] or {}).items():
        print(f"  [{group}]")
        for key, value in stats.items():
            print(f"    {key:<22} {value}")
    ledger = result["ledger"]
    print("== correctness ==")
    print(f"  attempted {ledger.attempted}  failed {ledger.failed}  "
          f"failed_ops_ratio {ledger.failed / ledger.attempted}")
    print(f"  reference digest {result['digest']}: {digest_state}")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    specs = metric_specs()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in specs["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    ledger = result["ledger"]
    digest_state = check_digest(args.workload, result["digest"], ledger)
    print_report(result, specs, digest_state)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {s["name"]: {"value": result["metrics"][s["name"]], "unit": s["unit"]}
               for s in specs[kind]}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {k: v for k, v in result.items() if k not in ("ledger", "spans")}
    record["probe_reference_s"] = PROBE_REFERENCE_S
    record.update(attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": result["spans"]}) + "\n")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
