"""smq benchmark: one closed-loop client runs one workload against the public
``smq`` API and the ``smq`` CLI, checks every output, and prints the metrics.

    python3 bench/run.py --workload solve-strict --seed 1 --seconds 20 --trace 0

Run it from the repository root; the package is imported from ``src/``, not
installed. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from wrappers installed around each module's public
functions. The last line of stdout is one JSON object; a fuller record goes to
``.bench_work/results/``. See bench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
from reference import instance_json, make_instance
from tracing import Bucket, Tracer
from workloads import WORKLOADS, Case, Workload, sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 16  # fresh interpreters per untraced run, spread over its ops; setup_s is their median
PROBE_SHARE = 0.04  # of each run's time, spent on host-speed probes
MIN_OPS = 11  # op_tail_ms needs at least ten samples beyond the percentile
REFERENCE_SECONDS = 20  # the --seconds a workload's `rounds` is sized for
TRACED_DECK = (12, 3)  # at most this many op-deck and CLI-deck cases in a traced run
CHILD_TIMEOUT_S = 150

# (name, unit): the order in which the report prints them.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cli_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Timings scaled to the reference host speed, and the power of the host factor each takes.
HOST_SCALED = {"ops_per_s": -1, "op_p50_ms": 1, "op_tail_ms": 1, "cli_p50_ms": 1, "setup_s": 1}
QUERIES = ("oracle.lex_optimum", "oracle.highest_link", "oracle.feasible_partners")


def _per_layer(ops: Bucket, n_ops: int, cli: Bucket, n_cli: int, factor: float) -> dict:
    """Per-layer metrics from the traced run: `.ms` is inclusive time per op,
    `.self_ms` excludes wrapped children, `.calls` is calls per op. Times are
    scaled to the reference host speed by `factor`."""
    per_op_ms = factor * 1000 / n_ops

    def ms(layer):
        return ops.inclusive_s(layer) * per_op_ms

    sizes = [size for _, size, _ in ops.scans]
    visited = sum(v for _, _, v in ops.scans)
    return {
        "link.link_transform.ms": (ms("link.link_transform"), "ms"),
        "link.linearize_weak.ms": (ms("link.linearize_weak"), "ms"),
        "instances.parse_instance.ms": (ms("instances.parse_instance"), "ms"),
        "instances.derive_classical.ms": (ms("instances.derive_classical"), "ms"),
        "alpha.linearize.ms": (ms("alpha.linearize"), "ms"),
        "alpha.popularity_orders.ms": (ms("alpha.popularity_orders"), "ms"),
        "gale_shapley.gs.ms": (ms("gale_shapley.gs"), "ms"),
        "gale_shapley.gs.calls": (ops.calls("gale_shapley.gs") / n_ops, "count"),
        "gale_shapley.proposals": (ops.proposals / n_ops, "count"),
        "stability.is_stable.ms": (ms("stability.is_stable"), "ms"),
        "stability.is_stable.calls": (ops.calls("stability.is_stable") / n_ops, "count"),
        "stability.blocking_pairs.ms": (ms("stability.blocking_pairs"), "ms"),
        "stability.dominates.ms": (ms("stability.dominates"), "ms"),
        "stability.dominates.calls": (ops.calls("stability.dominates") / n_ops, "count"),
        "link.marriage_link.calls": (ops.calls("link.marriage_link") / n_ops, "count"),
        "oracle.enumerate_stable.calls": (ops.calls("oracle.enumerate_stable") / n_ops, "count"),
        "oracle.enumerate_stable.self_ms": (ops.self_s("oracle.enumerate_stable") * per_op_ms,
                                            "ms"),
        "oracle.queries.self_ms": (sum(ops.self_s(q) for q in QUERIES) * per_op_ms, "ms"),
        "oracle.stable_set_size": (sum(sizes) / len(sizes) if sizes else 0.0, "count"),
        "oracle.hit_ratio": (sum(sizes) / visited if visited else 0.0, "ratio"),
        "cli.main.self_ms": (cli.self_s("cli.main") * factor * 1000 / n_cli, "ms"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter with smq importable; wall time to exit and result."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start, proc


def setup_time() -> float:
    """Seconds from launching an interpreter until `import smq` returns. The
    child reads the same monotonic clock as this process."""
    start = perf_counter()
    _, proc = run_child(["-c", "import time\nimport smq\nprint(repr(time.perf_counter()))"])
    if proc.returncode != 0:
        raise RuntimeError(f"import smq failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout) - start


def git_head() -> str | None:
    """HEAD commit of the checkout, or None outside a git checkout. Git does
    not look for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds in an untraced run: `workload.rounds` per REFERENCE_SECONDS of
    `seconds`, and at least enough for MIN_OPS ops. The count depends on
    nothing else (not on host or program speed), so every run of a workload
    at one `seconds` has the same number of ops and `op_tail_ms` is the same
    percentile on every commit."""
    return max(-(-MIN_OPS // workload.op_deck),
               round(workload.rounds * seconds / REFERENCE_SECONDS))


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    ten samples above it. Needs at least 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    return 100 * (n - 10) / n, ordered[n - 11]


@dataclass
class Input:
    text: str
    path: str


class BenchRun:
    """One run: its decks, their prepared inputs, and the tally of checked outputs."""

    def __init__(self, workload: Workload, smq, cli_deck: list[Case], op_decks,
                 workdir: Path):
        self.workload = workload
        self.smq = smq
        self.cli_deck = cli_deck
        self.op_decks = op_decks  # iterator of op decks, one per round
        self.workdir = workdir
        self.used: list[Case] = []  # op-deck cases run so far, one entry per round
        self._inputs: dict[int, Input] = {}  # CLI deck and this round only: RSS stays flat
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probes: list[float] = []
        self.scans: list[tuple[str, int, int]] = []  # traced enumerate_stable calls
        self._probe_s = 0.0
        self._verified: dict = {}
        self.prepare(cli_deck)

    def prepare(self, cases: list[Case], keep: list[Case] = ()) -> None:
        """Hold the instances of `cases` and `keep`, writing those not held yet;
        drop all others."""
        held, self._inputs = self._inputs, {}
        for case in [*keep, *cases]:
            if case.id not in held:
                text = instance_json(*make_instance(case.n, case.seed, case.max_score))
                path = self.workdir / f"case{case.id}.json"
                path.write_text(text)
                held[case.id] = Input(text, str(path))
            self._inputs[case.id] = held[case.id]

    def next_round(self, cut: int | None = None) -> list[Case]:
        """Draw the next op deck, cut to at most `cut` cases, and write its
        instances; drop the last round's, but keep the CLI deck's."""
        ops = next(self.op_decks)[:cut]
        self.prepare(ops, keep=self.cli_deck)
        self.used += ops
        return ops

    def _tally(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def op(self, case: Case, clock=perf_counter) -> float | None:
        """Run and check one op; its seconds, or None if it failed."""
        text = self._inputs[case.id].text
        try:
            start = clock()
            result = self.workload.op(self.smq, text, case)
            elapsed = clock() - start
            problems = self.workload.check(case, text, result, self._verified)
        except Exception as exc:  # a failing op is counted, never fatal
            problems = [f"case {case.id}: op raised {type(exc).__name__}: {exc}"]
        return elapsed if self._tally(problems) else None

    def cli(self, case: Case) -> float | None:
        """Run the CLI counterpart as a subprocess; its seconds, or None if it failed."""
        argv = ["-m", "smq.cli", *self.workload.cli_argv(case, self._inputs[case.id].path)]
        try:
            elapsed, proc = run_child(argv)
            problems = _cli_problems(case, proc.returncode, proc.stdout)
        except subprocess.TimeoutExpired:
            problems = [f"case {case.id}: CLI timed out after {CHILD_TIMEOUT_S} s"]
        return elapsed if self._tally(problems) else None

    def cli_in_process(self, case: Case) -> None:
        """Run the CLI counterpart through smq.cli.main with stdout captured."""
        argv = self.workload.cli_argv(case, self._inputs[case.id].path)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.smq.cli.main(argv)
            problems = _cli_problems(case, code, out.getvalue().encode())
        except Exception as exc:  # a failing call is counted, never fatal
            problems = [f"case {case.id}: CLI main raised {type(exc).__name__}: {exc}"]
        self._tally(problems)

    def probe_up_to(self, start: float) -> None:
        """Run host-speed probes until they fill PROBE_SHARE of the time since `start`."""
        while self._probe_s < PROBE_SHARE * (perf_counter() - start):
            began = perf_counter()
            hostspeed.probe()
            self.probes.append(perf_counter() - began)
            self._probe_s += self.probes[-1]

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        """End-to-end metrics over `rounds_for(seconds)` rounds. Each round
        draws a fresh op deck and runs every case of it once. The CLI deck's
        calls, the host-speed probes and the set-up launches are spread
        evenly between the run's ops, so all of them see the same host speed."""
        n_ops = rounds_for(self.workload, seconds) * self.workload.op_deck
        setup: list[float] = []
        ops: list[float | None] = []
        clis: list[float | None] = []
        start = None
        while len(ops) < n_ops:
            op_deck = self.next_round()
            if start is None:
                self.op(op_deck[0])  # warm-up, counted but not timed
                run_child(["-m", "smq.cli", "--help"])  # compiles the CLI's bytecode
                start = perf_counter()
            for case in op_deck:
                ops.append(self.op(case))
                while len(clis) < len(ops) * len(self.cli_deck) // n_ops:
                    clis.append(self.cli(self.cli_deck[len(clis)]))
                while len(setup) < len(ops) * SETUP_RUNS // n_ops:
                    setup.append(setup_time())
                self.probe_up_to(start)
        ops = [t for t in ops if t is not None]
        clis = [t for t in clis if t is not None]
        raw = {
            "ops_per_s": len(ops) / sum(ops) if ops else 0.0,
            "op_p50_ms": statistics.median(ops) * 1000 if ops else 0.0,
            "op_tail_ms": tail(ops)[1] * 1000 if len(ops) >= MIN_OPS else 0.0,
            "cli_p50_ms": statistics.median(clis) * 1000 if clis else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        factor = hostspeed.scale(self.probes)
        detail = {
            "host_scale": factor,
            "raw_metrics": raw,
            "rounds": n_ops // self.workload.op_deck,
            "op_tail_percentile": tail(ops)[0] if len(ops) >= MIN_OPS else None,
            "op_samples_s": ops,
            "cli_samples_s": clis,
            "setup_samples_s": setup,
            "probe_samples_s": self.probes,
        }
        return {name: (raw[name] * factor ** HOST_SCALED.get(name, 0), unit)
                for name, unit in END_TO_END}, detail

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """Per-layer metrics. Every round repeats the first round's op deck
        and the CLI deck, and the run stops only after a whole round, so
        counts per op repeat exactly at one seed. Each round runs every
        op-deck case once plain and once traced, in alternating order, then
        every CLI-deck case through the traced in-process `main`. Decks are
        cut to TRACED_DECK, because traced ops run up to twice as long."""
        tracer = Tracer()
        ops_bucket, cli_bucket = tracer.bucket, Bucket()
        self.cli_deck = cli_deck = self.cli_deck[:TRACED_DECK[1]]
        op_deck = self.next_round(cut=TRACED_DECK[0])
        self.op(op_deck[0])  # warm-up, counted but not timed
        ratios = []
        traced_s = 0.0
        rounds = 0
        round_s = 0.0
        start = perf_counter()
        while rounds == 0 or perf_counter() + round_s <= start + seconds:
            began = perf_counter()
            for k, case in enumerate(op_deck):
                timings = {}
                for wrapped in ((False, True) if (k + rounds) % 2 == 0 else (True, False)):
                    if wrapped:
                        with tracer.installed():
                            tracer.bucket = ops_bucket
                            timings[wrapped] = self.op(case, clock=tracer.now)
                    else:
                        timings[wrapped] = self.op(case)
                if None not in timings.values():
                    ratios.append(timings[True] / timings[False])
                    traced_s += timings[True]
                self.probe_up_to(start)
            for case in cli_deck:
                with tracer.installed():
                    tracer.bucket = cli_bucket
                    self.cli_in_process(case)
                self.probe_up_to(start)
            rounds += 1
            round_s = perf_counter() - began
        factor = hostspeed.scale(self.probes)
        n_ops = rounds * len(op_deck)
        n_cli = rounds * len(cli_deck)
        metrics = _per_layer(ops_bucket, n_ops, cli_bucket, n_cli, factor)
        self.scans = ops_bucket.scans
        props = [c.properties for c in op_deck]
        metrics["alpha.incomparable_share"] = (_mean_prop(props, "alpha.incomparable_share"),
                                               "ratio")
        metrics["link.tie_share"] = (_mean_prop(props, "link.tie_share."), "ratio")
        metrics["trace.overhead_pct"] = (
            (statistics.median(ratios) - 1) * 100 if ratios else 0.0, "%")
        detail = {"host_scale": factor, "rounds": rounds, "traced_ops": n_ops,
                  "traced_cli_calls": n_cli, "scans": ops_bucket.scans,
                  "spans": _spans(ops_bucket), "cli_spans": _spans(cli_bucket),
                  "probe_samples_s": self.probes}
        if traced_s:
            shares = {layer: span[2] / traced_s for layer, span in ops_bucket.spans.items()}
            detail["self_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1])[:5])
        return metrics, detail


def _spans(bucket: Bucket) -> dict:
    return {layer: dict(zip(("calls", "inclusive_s", "self_s"), span))
            for layer, span in sorted(bucket.spans.items())}


def _cli_problems(case: Case, code: int, stdout: bytes) -> list[str]:
    if code != 0:
        return [f"case {case.id}: CLI exited with {code}"]
    if sha256(stdout) != case.cli_digest:
        return [f"case {case.id}: CLI stdout digest differs from the recorded one"]
    return []


def _mean_prop(props: list[dict], prefix: str) -> float:
    values = [v for p in props for k, v in p.items() if k.startswith(prefix)]
    return sum(values) / len(values) if values else 0.0


def workload_shape(bench_run: BenchRun) -> dict:
    """Input properties of the op-deck cases this run used: what a gain may depend on."""
    cases = list({c.id: c for c in bench_run.used}.values())
    shape: dict = {"op_cases": sorted(c.id for c in cases),
                   "cli_cases": sorted(c.id for c in bench_run.cli_deck),
                   "n": sorted({c.n for c in cases})}
    by_key: dict = {}
    for case in sorted(cases, key=lambda c: c.alpha or 0):
        for key, value in case.properties.items():
            if key == "alpha.incomparable_share":
                key = f"{key}[alpha={case.alpha}]"
            by_key.setdefault(key, []).append(value)
        for notion, size in case.set_sizes.items():
            by_key.setdefault(f"oracle.stable_set_size[{notion}]", []).append(size)
    for notion, size, visited in bench_run.scans:
        if visited:
            by_key.setdefault(f"oracle.hit_ratio[{notion}]", []).append(size / visited)
    for key, values in by_key.items():
        shape[key] = {"min": min(values), "median": statistics.median(values),
                      "max": max(values)}
    return shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smq" / "__init__.py").is_file():
        print(f"error: no smq package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import smq
    import smq.cli  # noqa: F401  (in-process CLI calls in the traced run)

    workload = WORKLOADS[args.workload]
    cli_deck, op_decks = workload.decks(workload.load_pool(), args.seed)
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench_run = BenchRun(workload, smq, cli_deck, op_decks, workdir)
        run = bench_run.traced if args.trace else bench_run.untraced
        metrics, detail = run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mode = "traced" if args.trace else "untraced"
    shape = workload_shape(bench_run)
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "mode": mode,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_head": git_head(),
        "attempted": bench_run.attempted, "failed": bench_run.failed,
        "error_rate": bench_run.failed / bench_run.attempted,
        "problems": bench_run.problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "shape": shape, "detail": detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_file = results / f"{workload.name}-seed{args.seed}-{mode}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name} ({mode}), seed {args.seed}: {workload.why}")
    print(f"python {record['python']}, nproc {record['nproc']}, git {record['git_head']}")
    print(f"timings scaled to the reference host speed by {detail['host_scale']:.4f} "
          f"(see bench/hostspeed.py); raw values in brackets")
    raw = detail.get("raw_metrics", {})
    for name, (value, unit) in metrics.items():
        extra = f"  [{raw[name]:.4f}]" if name in HOST_SCALED else ""
        print(f"  {name:<34} {value:>14.4f} {unit}{extra}")
    for layer, share in detail.get("self_share", {}).items():
        print(f"  self time share {layer:<34} {100 * share:6.1f}%")
    if detail.get("op_tail_percentile") is not None:
        n = len(detail["op_samples_s"])
        print(f"  op_tail_ms is p{detail['op_tail_percentile']:.1f} of {n} ops "
              f"(10 samples beyond it)")
    print(f"  error_rate {record['error_rate']:.4f} "
          f"({bench_run.failed} failed of {bench_run.attempted} attempted)")
    for problem in bench_run.problems[:10]:
        print(f"  FAILED {problem}")
    print("workload shape:")
    for key, value in shape.items():
        if isinstance(value, dict):
            print(f"  {key:<44} min {value['min']:.4g}  median {value['median']:.4g}  "
                  f"max {value['max']:.4g}")
        else:
            print(f"  {key:<44} {value}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bench_run.failed == 0,
        "attempted": bench_run.attempted,
        "failed": bench_run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
