"""Host-speed probe used to express timings at one reference speed.

On a shared host the same op can take 1.6 times as long from one minute to
the next: the program runs no slower, the host does (CPU time tracks wall
time, so it is not scheduling). The probe is a fixed piece of pure-Python
work with the same instruction mix as the library's hot loops (method calls
inside generator expressions, nested list indexing, sorting by key, JSON
parsing). It imports nothing from ``smq``, so no change to the program can
move it. A run interleaves probes with its ops; every timing it reports is
scaled by ``(REFERENCE_S / mean(probe time)) ** ELASTICITY``. Raw timings are
kept in the run's record.

How strongly the workloads' timings follow the probe changes with the
host. In sets of ten runs per workload during which the probe's time moved
by 20-40%, the fitted elasticity of the timings lay between 0.3 and 0.7; in
a set during which it moved by 40-65%, between 0.8 and 1.0 (likely because
a fit against a noisy probe reads low when the host moves little). ELASTICITY 0.75 gave the
smallest largest spread: over the 40 timing spreads of one set of each
kind, the largest was 0.174, against 0.239 with 0.5 and 0.181 with 1.0
(bench/README.md, "Host speed").

REFERENCE_S and ELASTICITY are fixed constants that set the scale: with the
host at REFERENCE_S, scaled and raw timings are equal. Never change them, or
every recorded timing changes with them.
"""

from __future__ import annotations

import json
import random
import statistics

REFERENCE_S = 0.0130
ELASTICITY = 0.75

_rng = random.Random(12345)
_TEXT = json.dumps({"rows": [_rng.sample(range(1, 401), 40) for _ in range(40)]})


class _Row:
    def __init__(self, row: list[int], gap: int):
        self.row = row
        self.gap = gap

    def beats(self, a: int, b: int) -> bool:
        return self.row[a] - self.row[b] >= self.gap


def probe() -> int:
    rows = json.loads(_TEXT)["rows"]
    out = 0
    for row in rows[:6]:
        view = _Row(row, 60)
        left = list(range(len(row)))
        while left:
            free = [c for c in left if not any(d != c and view.beats(d, c) for d in left)]
            best = min(free, key=row.__getitem__)
            left.remove(best)
            out += best
    for _ in range(6):
        for m, row in enumerate(rows):
            current = row[m]
            for w in range(len(row)):
                if row[w] > current and rows[w][m] > rows[w][w]:
                    out += 1
    ranked = [tuple(sorted(range(len(r)), key=r.__getitem__, reverse=True)) for r in rows]
    return out + len(ranked)


def scale(samples: list[float]) -> float:
    """Factor that turns this run's timings into reference-speed timings."""
    return (REFERENCE_S / statistics.mean(samples)) ** ELASTICITY
