"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They check that the independent reference agrees with the library, that an
untraced run leaves the library untouched, that traced counts repeat exactly
at one seed, and that the metrics printed match BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys

import pytest

import run
import tracing
from reference import blocking_pair, incomparable_share, instance_json, make_instance, tie_share
from workloads import DECK_TOLERANCE, NOTIONS, WORKLOADS, cli_cost, cost_profile, op_cost

sys.path.insert(0, str(run.SRC))
import smq  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "stability.is_stable.calls",
    "stability.dominates.calls",
    "gale_shapley.proposals",
    "oracle.enumerate_stable.calls",
    "oracle.stable_set_size",
    "oracle.hit_ratio",
    "link.marriage_link.calls",
)


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_generator_matches_library():
    for n, seed, max_score in ((1, 0, 1), (5, 7, 12), (40, 3, 400)):
        men, women = make_instance(n, seed, max_score)
        expected = smq.serialize_instance(smq.random_instance(n, seed, max_score))
        assert instance_json(men, women) == expected


def test_reference_check_agrees_with_library():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 4)
        men, women = make_instance(n, rng.randrange(10**6), rng.randint(n, 9))
        q = smq.validate(n, men, women)
        for perm in itertools.permutations(range(n)):
            for notion in NOTIONS:
                alpha = rng.randint(1, 3) if notion == "alpha" else None
                mine = blocking_pair(men, women, list(perm), notion, alpha) is None
                assert mine == smq.is_stable(q, smq.Marriage(perm), notion, alpha)


def test_properties_agree_with_library():
    men, women = make_instance(6, 11, 10)
    q = smq.validate(6, men, women)
    for alpha in (1, 2, 4):
        view = smq.alpha_transform(q, alpha)
        pairs = sum(len(view.incomparable_pairs(side, p))
                    for side in ("men", "women") for p in range(6))
        assert incomparable_share(men, women, alpha) == pairs / (2 * 6 * 15)
    for mode in ("add", "max"):
        profile = smq.link_transform(q, mode)
        ties = sum(1 for rows in (profile.men_values, profile.women_values) for row in rows
                   for (_, a), (_, b) in itertools.combinations(row, 2) if a == b)
        assert tie_share(men, women, mode) == ties / (2 * 6 * 15)
        assert (ties > 0) == smq.has_ties(profile)


def _current_functions() -> dict:
    return {(module.__name__, name): value
            for module in tracing.namespaces() for name, value in vars(module).items()}


def test_untraced_run_leaves_library_functions_untouched(monkeypatch, capsys):
    before = _current_functions()
    seen = []
    real_op = run.BenchRun.op

    def checking_op(self, case, clock=run.perf_counter):
        seen.append(all(v is before[k] for k, v in _current_functions().items()))
        return real_op(self, case, clock)

    monkeypatch.setattr(run.BenchRun, "op", checking_op)
    assert run.main(["--workload", "solve-alpha", "--seed", "3", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert seen and all(seen)
    assert _current_functions() == before
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0


def test_tracer_wraps_every_lookup_name_and_restores_them():
    before = _current_functions()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert smq.oracle.is_stable is not before[("smq.oracle", "is_stable")]
        assert smq.link.gs is not before[("smq.link", "gs")]
        assert smq.alpha.linearize is smq.linearize
        assert smq.cli.main.__wrapped__ is before[("smq.cli", "main")]
    assert _current_functions() == before


def test_traced_counts_repeat_exactly_at_one_seed():
    first = _bench("--workload", "certify", "--seed", "5", "--seconds", "1", "--trace", "1")
    second = _bench("--workload", "certify", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_decks_are_seeded_and_match_the_pool_cost_profile(name):
    workload = WORKLOADS[name]
    pool = workload.load_pool()

    def draw(seed):
        cli_deck, op_decks = workload.decks(pool, seed)
        return [cli_deck, *itertools.islice(op_decks, 3)]

    decks = draw(1)
    assert decks == draw(1)
    assert decks != draw(2)
    sizes = (workload.cli_deck, *[workload.op_deck] * 3)
    for deck, size, cost in zip(decks, sizes, (cli_cost, op_cost, op_cost, op_cost)):
        assert len(deck) == size == len({c.id for c in deck})
        assert {c.group for c in deck} == {c.group for c in pool}
        mean, median = cost_profile(pool, cost)
        deck_mean, deck_median = cost_profile(deck, cost)
        assert abs(deck_mean / mean - 1) <= DECK_TOLERANCE
        assert abs(deck_median / median - 1) <= DECK_TOLERANCE


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_properties_match_their_instances(name):
    workload = WORKLOADS[name]
    for case in workload.load_pool()[:3]:
        men, women = make_instance(case.n, case.seed, case.max_score)
        assert case.properties == workload.properties(case, men, women)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(20, 0, -1)]) == (50.0, 10.0)
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_have_over_20_ops_so_the_tail_is_above_the_median(name):
    workload = WORKLOADS[name]
    n_ops = run.rounds_for(workload, SPEC["run_seconds"]) * workload.op_deck
    assert n_ops > 20
    assert run.rounds_for(workload, 1) * workload.op_deck >= run.MIN_OPS


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
