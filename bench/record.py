"""Record the input pools and reference digests the benchmark checks against.

    python3 bench/record.py [workload ...]
    python3 bench/record.py --cli-cost [workload ...]

For each workload this draws candidate inputs from a fixed seed, runs the op
and the CLI counterpart at the current commit, and writes
bench/pools/<workload>.json: the inputs, the SHA-256 of the op's canonical
output and of the CLI's stdout, the stable-set sizes, and the op time (at
the reference host speed, see hostspeed.py) and CLI time that op decks and
CLI decks are balanced on, and the input properties of the shape report. A
run's `--seed` only chooses among these cases, so every output it produces
has a recorded reference. `--cli-cost` re-measures only the CLI times of the
existing pools and keeps everything else, digests included.

The pools were recorded once, on the commit that introduced the benchmark.
Re-record only for a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import itertools
import json
import platform
import random
import statistics
import sys
import tempfile
from dataclasses import asdict, replace
from time import perf_counter

import hostspeed
from reference import instance_json, make_instance
from run import SRC, WORK, git_head, run_child
from workloads import POOLS, WORKLOADS, Case, Workload, sha256

sys.path.insert(0, str(SRC))
import smq  # noqa: E402

COST_REPEATS = 3  # op runs per case; cost_ms is their median at reference host speed
CLI_COST_REPEATS = 5  # CLI runs per case; cli_cost_ms is their median at reference host speed
PROBE_S = 0.04  # host-speed probe time before each op run


def alpha_set_size(men, women, alpha: int) -> int:
    """Alpha-stable marriages of a small instance, by a plain permutation scan."""
    q = smq.validate(len(men), men, women)
    return sum(smq.is_stable(q, smq.Marriage(p), "alpha", alpha)
               for p in itertools.permutations(range(len(men))))


def measure(workload: Workload, text: str, case: Case, repeats: int):
    """(median op time in ms at the reference host speed, last result)."""
    times, probes = [], []
    for _ in range(repeats):
        while sum(probes) < PROBE_S * (len(times) + 1):
            start = perf_counter()
            hostspeed.probe()
            probes.append(perf_counter() - start)
        start = perf_counter()
        result = workload.op(smq, text, case)
        times.append(perf_counter() - start)
    return statistics.median(times) * hostspeed.scale(probes) * 1000, result


def measure_cli(workload: Workload, case: Case, path: str):
    """(one CLI run's time in ms at the reference host speed, its process),
    after PROBE_S of host-speed probes. Raises if the CLI exits non-zero."""
    probes = []
    while sum(probes) < PROBE_S:
        start = perf_counter()
        hostspeed.probe()
        probes.append(perf_counter() - start)
    elapsed, proc = run_child(["-m", "smq.cli", *workload.cli_argv(case, path)])
    if proc.returncode != 0:
        raise SystemExit(f"{workload.name} case {case.id}: CLI exited {proc.returncode}")
    return elapsed * hostspeed.scale(probes) * 1000, proc


def write_pool(workload: Workload, cases: list[Case], recorded_at: str | None) -> None:
    doc = {
        "workload": workload.name,
        "recorded_at": recorded_at,
        "python": platform.python_version(),
        "cases": [asdict(c) for c in cases],
    }
    POOLS.mkdir(exist_ok=True)
    (POOLS / f"{workload.name}.json").write_text(json.dumps(doc, indent=1) + "\n")


def record(workload: Workload) -> None:
    rng = random.Random(f"pool/{workload.name}")
    cases = []
    index = 0
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        while len(cases) < workload.pool_size:
            params = workload.candidate(rng, index)
            index += 1
            men, women = make_instance(params["n"], params["seed"], params["max_score"])
            if workload.alpha_set_range:
                low, high = workload.alpha_set_range
                if not low <= alpha_set_size(men, women, params["alpha"]) <= high:
                    continue
            text = instance_json(men, women)
            case = Case(id=len(cases), cost_ms=0.0, cli_cost_ms=0.0, digest="", cli_digest="",
                        set_sizes={}, properties={}, **params)
            case = replace(case, properties=workload.properties(case, men, women))
            if workload.cost_range:
                low, high = workload.cost_range
                if not low <= measure(workload, text, case, 1)[0] <= high:
                    continue
            cost_ms, result = measure(workload, text, case, COST_REPEATS)
            if workload.cost_range and not low <= cost_ms <= high:
                continue
            digest = sha256(workload.canonical(result))
            path = f"{tmp}/case.json"
            with open(path, "w") as handle:
                handle.write(text)
            runs = [measure_cli(workload, case, path) for _ in range(CLI_COST_REPEATS)]
            cli_cost_ms = statistics.median(ms for ms, _ in runs)
            sizes = workload.set_sizes(result)
            case = replace(case, cost_ms=round(cost_ms, 1), cli_cost_ms=round(cli_cost_ms, 1),
                           digest=digest, cli_digest=sha256(runs[-1][1].stdout),
                           set_sizes=sizes)
            problems = workload.check(case, text, result, {})
            if problems:
                raise SystemExit(f"{workload.name}: refusing to record a failing output: "
                                 f"{problems}")
            cases.append(case)
            print(f"{workload.name} case {case.id}: {case.cost_ms} ms {sizes}", flush=True)
    write_pool(workload, cases, git_head())


def record_cli_cost(workload: Workload) -> None:
    """Re-measure cli_cost_ms of an existing pool. The runs go round the
    whole pool CLI_COST_REPEATS times, so a drift of host speed spreads over
    all cases; every stdout must still match its recorded digest."""
    recorded_at = json.loads((POOLS / f"{workload.name}.json").read_text())["recorded_at"]
    cases = workload.load_pool()
    times: dict[int, list[float]] = {case.id: [] for case in cases}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        paths = {}
        for case in cases:
            paths[case.id] = f"{tmp}/case{case.id}.json"
            with open(paths[case.id], "w") as handle:
                handle.write(instance_json(*make_instance(case.n, case.seed, case.max_score)))
        for _ in range(CLI_COST_REPEATS):
            for case in cases:
                ms, proc = measure_cli(workload, case, paths[case.id])
                if sha256(proc.stdout) != case.cli_digest:
                    raise SystemExit(f"{workload.name} case {case.id}: CLI stdout differs "
                                     f"from the recorded digest")
                times[case.id].append(ms)
    cases = [replace(c, cli_cost_ms=round(statistics.median(times[c.id]), 1)) for c in cases]
    for case in cases:
        print(f"{workload.name} case {case.id}: CLI {case.cli_cost_ms} ms", flush=True)
    write_pool(workload, cases, recorded_at)


def main(args: list[str]) -> None:
    cli_only = "--cli-cost" in args
    names = [a for a in args if a != "--cli-cost"]
    for name in names or sorted(WORKLOADS):
        (record_cli_cost if cli_only else record)(WORKLOADS[name])


if __name__ == "__main__":
    main(sys.argv[1:])
