"""toricvol benchmark: closed loop, one client, one process, one thread.

    python3 bench/run.py --workload grid|deep_fan|semigroup --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src, never from
an installed copy. Every operation's output is checked against the
independent oracle in bench/oracle.py. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it holds the details (sample counts, input properties, failure
reasons). --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run. Instance documents, per-run results and
trace spans are written under .bench_out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import oracle
from refclock import ReferenceClock
from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "fan", "divisors", "valuation", "milnor_k", "volume", "lattice")
SETUP_SPAWNS = 15
# p90 needs at least 10 samples beyond it; a run that has fewer than
# MIN_SAMPLES after --seconds keeps going, up to MAX_SECONDS in all.
# 160 is ten cycles of the 16 deep_fan and semigroup instances.
MIN_SAMPLES = 160
MAX_SECONDS = 120.0
# operations between two reference-kernel timings, in raw seconds
SEGMENT_S = 0.05
LADDER = (8, 16, 32, 64, 128, 256)
LADDER_SECONDS = 1.0
LADDER_MAX_REPS = 50
GROWTH_LAYERS = ("volume.simplex", "divisors.ample_gate", "divisors.cartier",
                 "milnor_k.symbol", "lattice.hull", "volume.report")
F1_DOC = {"rays": [[1, 0], [0, 1], [-1, 1], [0, -1]], "divisor": [0, 1, 2, 0]}

# Per-layer metrics, each per traced operation (see README.md):
# self time of a span in ms,
LAYER_MS = {
    "cli.argparse_ms": "cli.argparse",
    "cli.parse_ms": "cli.parse",
    "cli.render_ms": "cli.render",
    "fan.validate_ms": "fan.validate",
    "divisors.cartier_ms": "divisors.cartier",
    "divisors.ample_gate_ms": "divisors.ample_gate",
    "divisors.gen_gate_ms": "divisors.gen_gate",
    "volume.simplex_ms": "volume.simplex",
    "milnor_k.symbol_ms": "milnor_k.symbol",
    "volume.dsq_ms": "volume.dsq",
    "divisors.area_route_ms": "divisors.area_route",
    "valuation.triv_ms": "valuation.triv",
    "volume.report_self_ms": "volume.report",
    "lattice.hull_ms": "lattice.hull",
    "divisors.sections_ms": "divisors.sections",
    "valuation.level_hull_ms": "valuation.level_hull",
}
# calls of a span,
LAYER_CALLS = {
    "fan.validate_calls": "fan.validate",
    "divisors.cartier_calls": "divisors.cartier",
    "divisors.ample_gate_calls": "divisors.ample_gate",
    "divisors.gen_gate_calls": "divisors.gen_gate",
    "volume.flags_visited": "volume.simplex",
}
# and a counter kept by the span wrappers.
LAYER_COUNTERS = {
    "lattice.hull_points_in": "hull_points_in",
    "lattice.hull_vertices_out": "hull_vertices_out",
    "divisors.section_candidates": "section_candidates",
    "divisors.section_points": "section_points",
}


class Workload:
    """Seeded inputs plus one operation runner; `ops()` never ends."""

    name = ""
    trace_ops = 0  # operations in one traced pass

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.props: dict = {}


def write_doc(workdir: Path, name: str, rays, coeffs) -> str:
    """Write an instance document; returns its path relative to the checkout."""
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"rays": [list(r) for r in rays],
                                "divisor": list(coeffs)}) + "\n")
    return str(path.relative_to(ROOT))


def run_cli(argv: list[str]) -> tuple[float, object, str]:
    """One in-process CLI call with stdout captured: (seconds, exit code, stdout)."""
    from toricvol import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a traceback is a failed operation, not a crash
            rc = f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
    return dt, rc, out.getvalue()


def run_report(op) -> tuple[float, str | None, int]:
    """A `report` call checked by the oracle: (seconds, failure or None, output bytes)."""
    argv, fmt, rays, coeffs = op
    dt, rc, out = run_cli(argv)
    return dt, oracle.check_report(fmt, rc, out, rays, coeffs), len(out.encode())


class CliReportWorkload(Workload):
    run = staticmethod(run_report)


class Grid(CliReportWorkload):
    """Fixed per-call cost at n = 4; includes 20 non-ample rejections."""

    name = "grid"
    trace_ops = 360  # every instance three times

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.instances = []
        for l, a, b in inputs.grid_instances():
            rays, coeffs = inputs.hirzebruch_rays(l), (0, a, b, 0)
            self.instances.append((write_doc(workdir, f"grid-{l}-{a}-{b}", rays, coeffs),
                                   rays, coeffs))
        ample = sum(oracle.is_ample(r, c) for _, r, c in self.instances)
        self.props = {"instances": len(self.instances), "ample": ample,
                      "not_ample": len(self.instances) - ample, "n_rays": 4,
                      "coeff_bits_max": max(max(c).bit_length() for _, _, c in self.instances)}

    def ops(self):
        rng = self.rng
        decomps = ["default", "successor"] + [f"generic-at={k}" for k in range(4)]
        display = [None] + [f"{r},{c}" for r, c in oracle.flags(4)]
        while True:
            for doc, rays, coeffs in rng.sample(self.instances, len(self.instances)):
                fmt = rng.choice(("text", "json", "csv"))
                argv = ["--decomposition", rng.choice(decomps), "report", doc, "--format", fmt]
                flag = rng.choice(display)
                if flag is not None:
                    argv += ["--flag", flag]
                yield argv, fmt, rays, coeffs


class DeepFan(CliReportWorkload):
    """report --format json at n = 64, built by seeded star subdivision."""

    name = "deep_fan"
    trace_ops = 16
    N = 64
    COUNT = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.instances = []
        for i in range(self.COUNT):
            rays, coeffs = inputs.deep_fan(self.N, self.rng)
            self.instances.append((write_doc(workdir, f"deep-{i}", rays, coeffs), rays, coeffs))
        self.props = {"instances": [
            {"n_rays": len(r), "coeff_bits": max(abs(x) for x in c).bit_length(),
             "ray_bits": max(abs(x) for v in r for x in v).bit_length()}
            for _, r, c in self.instances]}

    def ops(self):
        while True:
            for doc, rays, coeffs in self.instances:
                yield ["report", doc, "--format", "json"], "json", rays, coeffs


class Semigroup(Workload):
    """semigroup_level_hull at m = 1..5 for one (instance, flag) per operation."""

    name = "semigroup"
    trace_ops = 16
    LEVELS = range(1, 6)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from toricvol import divisor, hirzebruch_fan
        self.instances = []
        self.props = {"instances": []}
        for l, a, b in inputs.semigroup_instances(self.rng):
            rays, coeffs = inputs.hirzebruch_rays(l), (0, a, b, 0)
            self.instances.append((divisor(hirzebruch_fan(l), coeffs), rays, coeffs))
            self.props["instances"].append({
                "l": l, "a": a, "b": b, "n_rays": 4, "coeff_bits": b.bit_length(),
                "level5_points": oracle.lattice_points(rays, coeffs, 5),
                "level5_box": oracle.box_candidates(rays, coeffs, 5)})

    def ops(self):
        from toricvol.valuation import TFlag
        rng = self.rng
        while True:
            for D, rays, coeffs in rng.sample(self.instances, len(self.instances)):
                ray, cone = rng.choice(oracle.flags(4))
                yield D, TFlag(ray, cone), oracle.expected_flag_vertices(rays, coeffs, ray, cone)

    def run(self, op) -> tuple[float, str | None, int]:
        from toricvol import valuation
        D, flag, expected = op
        t0 = perf_counter()
        try:
            hulls = [valuation.semigroup_level_hull(D, flag, m) for m in self.LEVELS]
        except Exception as e:  # a traceback is a failed operation, not a crash
            return perf_counter() - t0, f"{type(e).__name__}: {e}", 0
        dt = perf_counter() - t0
        for m, hull in zip(self.LEVELS, hulls):
            if set(hull.vertices) != expected:
                return dt, f"level {m} hull {sorted(hull.vertices)} != {sorted(expected)}", 0
        return dt, None, 0


WORKLOADS = {w.name: w for w in (Grid, DeepFan, Semigroup)}


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, err: str | None) -> None:
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(err)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_setup(doc: str, clock: ReferenceClock) -> tuple[list[float], list[float]]:
    """Raw and reference seconds from spawning a fresh interpreter to its first operation ready.

    The child imports toricvol and toricvol.cli from ./src and makes one
    warm-up `report` call; input generation is not part of it.
    """
    code = (
        "import sys, io, contextlib\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import toricvol, toricvol.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = toricvol.cli.main(['report', {doc!r}, '--format', 'json'])\n"
        "print('ready', rc, flush=True)\n"
    )
    raw, ref = [], []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-I", "-c", code], cwd=ROOT,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as p:
            line = p.stdout.readline()
            dt = perf_counter() - t0
            p.stdout.read()
        if p.returncode != 0 or line.split() != [b"ready", b"0"]:
            raise RuntimeError(f"set-up child failed: exit {p.returncode}, said {line!r}")
        raw.append(dt)
        ref += clock.scale([dt])
    return raw, ref


def end_to_end(wl: Workload, seconds: float, tally: Tally, detail: dict) -> dict:
    """The closed loop; times are in reference units (see refclock.py)."""
    clock = ReferenceClock()
    setup_raw, setup_ref = measure_setup(
        write_doc(wl.workdir, "setup-f1", F1_DOC["rays"], F1_DOC["divisor"]), clock)
    ops = wl.ops()
    wl.run(next(ops))  # warm-up, not counted
    clock.scale([])
    raw, ref, segment = [], [], []
    t0 = perf_counter()
    while (perf_counter() - t0 < seconds
           or (len(raw) + len(segment) < MIN_SAMPLES and perf_counter() - t0 < MAX_SECONDS)):
        dt, err, _ = wl.run(next(ops))
        segment.append(dt)
        tally.add(err)
        if sum(segment) >= SEGMENT_S:
            raw += segment
            ref += clock.scale(segment)
            segment = []
    raw += segment
    ref += clock.scale(segment)
    lat, raw = sorted(ref), sorted(raw)
    detail["latency_samples"] = len(lat)
    detail["beyond_p90"] = sum(1 for x in lat if x > percentile(lat, 0.9))
    detail["setup_samples"] = len(setup_ref)
    detail["raw"] = {"setup_s": statistics.median(setup_raw),
                     "ops_per_s": len(raw) / sum(raw),
                     "latency_p50_ms": percentile(raw, 0.5) * 1e3,
                     "latency_p90_ms": percentile(raw, 0.9) * 1e3,
                     "kernel_ms_median": statistics.median(clock.kernel_samples) * 1e3,
                     "kernel_samples": len(clock.kernel_samples)}
    return {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(tracer: Tracer, run, op) -> tuple[float, str | None, int]:
    """Run one operation under an "op" root span with the layer spans installed."""
    tracer.install()
    idx = tracer.open("op")
    try:
        return run(op)
    finally:
        tracer.close(idx)
        tracer.uninstall()


def ladder(tracer: Tracer, clock: ReferenceClock, seed: int, tally: Tally,
           detail: dict) -> dict[int, dict]:
    """Traced `report --format json` at each fan size, deep-fan generator.

    Each size repeats until LADDER_SECONDS have passed (at least once) and
    keeps, per layer, the median over repetitions of its inclusive time in
    reference seconds.
    """
    workdir = ROOT / detail["workdir"]
    out = {}
    for n in LADDER:
        rays, coeffs = inputs.deep_fan(n, random.Random(seed * 1009 + n))
        op = (["report", write_doc(workdir, f"ladder-{n}", rays, coeffs), "--format", "json"],
              "json", rays, coeffs)
        reps = []
        clock.scale([])
        t_end = perf_counter() + LADDER_SECONDS
        while not reps or (perf_counter() < t_end and len(reps) < LADDER_MAX_REPS):
            _, err, _ = traced_run(tracer, run_report, op)
            tally.add(err)
            outer = {name: rec[3] for name, rec in summarize(tracer.take()).items()}
            reps.append(dict(zip(outer, clock.scale(list(outer.values())))))
        out[n] = {name: statistics.median(r.get(name, 0.0) for r in reps)
                  for name in set().union(*reps)}
        detail.setdefault("ladder", {})[n] = {
            "coeff_bits": max(abs(x) for x in coeffs).bit_length(),
            "reps": len(reps), "report_ms": out[n].get("volume.report", 0.0) * 1e3}
    return out


def sweep_bad_rows() -> int:
    """Rows of the grid sweep whose dsq field breaks the '-' convention."""
    _, _, out = run_cli(["sweep", "--l", "1..4", "--a", "1..5", "--b-extra", "0..5"])
    bad = 0
    for line in out.splitlines()[1:]:
        l, a, b, _, dsq = line.split(",")[:5]
        rays, coeffs = inputs.hirzebruch_rays(int(l)), (0, int(a), int(b), 0)
        want = str(oracle.self_intersection(rays, coeffs)) if oracle.is_ample(rays, coeffs) else "-"
        bad += dsq != want
    return bad


def sloc(module: str) -> int:
    """Non-blank lines of a package module that are not comment-only."""
    lines = (SRC / "toricvol" / f"{module}.py").read_text().splitlines()
    return sum(1 for s in lines if s.strip() and not s.strip().startswith("#"))


def per_layer(wl: Workload, seconds: float, tally: Tally, detail: dict) -> dict:
    """Passes over the workload's first operations, then the ladder.

    Each operation runs untraced and then traced, back to back, so that a
    change of machine speed between them barely moves `trace_overhead`.
    Passes repeat until `seconds` have passed. Times are converted to
    reference seconds pass by pass (see refclock.py).
    """
    tracer = Tracer()
    clock = ReferenceClock()
    gen = wl.ops()
    ops = [next(gen) for _ in range(wl.trace_ops)]
    wl.run(ops[0])  # warm-up, not counted
    clock.scale([])
    totals: dict[str, list[float]] = {}
    plain_s = traced_s = 0.0
    out_bytes = passes = 0
    t_end = perf_counter() + seconds
    while passes == 0 or perf_counter() < t_end:
        pass_plain = pass_traced = 0.0
        for op in ops:
            dt, err, _ = wl.run(op)
            pass_plain += dt
            tally.add(err)
            dt, err, nbytes = traced_run(tracer, wl.run, op)
            pass_traced += dt
            out_bytes += nbytes
            tally.add(err)
        factor, = clock.scale([1.0])
        plain_s += pass_plain * factor
        traced_s += pass_traced * factor
        spans = tracer.take()
        for name, (calls, total, self_s, outer) in summarize(spans).items():
            acc = totals.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total * factor
            acc[2] += self_s * factor
            acc[3] += outer * factor
        passes += 1
    detail["trace_passes"] = passes
    detail["trace_ops_per_pass"] = len(ops)
    traced_ops = passes * len(ops)

    def per_op(v: float) -> float:
        return v / traced_ops

    c = tracer.counters
    metrics = {k: (per_op(totals.get(s, [0, 0.0, 0.0])[2]) * 1e3, "ms") for k, s in LAYER_MS.items()}
    metrics.update({k: (per_op(totals.get(s, [0])[0]), "count") for k, s in LAYER_CALLS.items()})
    metrics.update({k: (per_op(c[s]), "count") for k, s in LAYER_COUNTERS.items()})
    metrics["cli.output_bytes"] = (per_op(out_bytes), "bytes")
    metrics["lattice.hull_useful_ratio"] = (
        c["hull_vertices_out"] / c["hull_points_in"] if c["hull_points_in"] else 0.0, "ratio")
    metrics["divisors.section_hit_ratio"] = (
        c["section_points"] / c["section_candidates"] if c["section_candidates"] else 0.0, "ratio")
    metrics["trace_overhead"] = (per_op(traced_s - plain_s) * 1e3, "ms")

    ladder_stats = ladder(tracer, clock, detail["seed"], tally, detail)
    for layer in GROWTH_LAYERS:
        t128, t256 = ladder_stats[128].get(layer, 0.0), ladder_stats[256].get(layer, 0.0)
        metrics[f"{layer}.growth"] = (math.log2(t256 / t128) if t128 > 0 and t256 > 0 else 0.0,
                                      "log2")
    metrics["volume.report_n256_ms"] = (ladder_stats[256].get("volume.report", 0.0) * 1e3, "ms")
    metrics["cli.sweep.bad_rows"] = (sweep_bad_rows(), "count")
    for m in MODULES:
        metrics[f"src.sloc.{m}"] = (sloc(m), "count")
    (ROOT / detail["workdir"] / "trace-spans.json").write_text(json.dumps({
        "pass_totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in totals.items()},
        "last_pass_spans": spans,
        "ladder_inclusive_s": ladder_stats,
    }))
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="toricvol benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "toricvol" / "__init__.py").is_file():
        print(f"error: no toricvol package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toricvol
    if Path(toricvol.__file__).resolve().parent != SRC / "toricvol":
        print(f"error: imported toricvol from {toricvol.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # One CPU for the loop, the reference kernel and the set-up children:
    # the two CPUs of a shared host change speed independently, so a kernel
    # timed on one says little about work done on the other.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "workdir": str(workdir.relative_to(ROOT)), "cpu": cpu,
              "load": "closed loop, 1 client, 1 thread",
              "inputs": wl.props}
    if args.trace:
        metrics = per_layer(wl, args.seconds, tally, detail)
    else:
        metrics = end_to_end(wl, args.seconds, tally, detail)
    detail["failure_reasons"] = tally.reasons
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
