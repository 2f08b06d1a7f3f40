"""Certifying the solvers against brute force.

At desk sizes every one of the n! marriages can be checked directly, which
turns the library's structural claims into executable facts. This script
re-derives the main ones on seeded random markets, then shows the one
claim that does NOT hold in general. Run with
`python demos/04_certifying_the_solvers.py`.
"""

import smq

SEEDS = range(20)

# 1. Gap stability coincides with weak stability of the semiorder view.
#    Two independent filters, one exhaustive scan each.
for seed in SEEDS:
    market = smq.random_instance(4, seed=seed, max_score=6)
    for alpha in (1, 2, 3):
        direct = smq.enumerate_stable(market, "alpha", alpha).marriages()
        dual = smq.weakly_stable_set(smq.alpha_transform(market, alpha))
        assert direct == dual
print("ok: gap-stable sets equal the semiorder weak-stability sets")

# 2. Link stability coincides with weak stability of the strength profile.
for seed in SEEDS:
    market = smq.random_instance(4, seed=seed, max_score=6)
    for mode in ("add", "max"):
        direct = smq.enumerate_stable(market, f"link-{mode}").marriages()
        dual = smq.weakly_stable_set(smq.link_transform(market, mode))
        assert direct == dual
print("ok: link-stable sets equal the strength-profile weak-stability sets")

# 3. Stable sets only grow as the threshold rises, starting from the
#    classical set at threshold 1.
for seed in SEEDS:
    market = smq.random_instance(4, seed=seed, max_score=6)
    classical = set(m.partner_of_man for m in smq.enumerate_stable(market, "classical").marriages())
    previous = None
    for alpha in (1, 2, 3, 4):
        current = set(m.partner_of_man for m in smq.enumerate_stable(market, "alpha", alpha).marriages())
        assert classical <= current
        assert previous is None or previous <= current
        if alpha == 1:
            assert current == classical
        previous = current
print("ok: threshold inclusions hold, with equality at threshold 1")

# 4. Tie-free strength profiles have a unique strongest link-stable
#    marriage, and the link solver returns it.
hits = 0
for seed in range(60):
    market = smq.random_instance(3, seed=seed, max_score=30)
    for mode in ("add", "max"):
        if smq.has_ties(smq.link_transform(market, mode)):
            continue
        hits += 1
        best = smq.highest_link(market, mode)
        assert len(best) == 1 and smq.link_stable_gs(market, mode) == best[0]
print(f"ok: unique strongest marriage confirmed on {hits} tie-free cases")

# 5. The caveat. The popularity-guided solver always returns a stable
#    marriage, but not always the lexicographic optimum: deferred
#    acceptance optimizes each man's OWN list, while the lexicographic
#    order ranks partners by shared popularity. When the two disagree on a
#    forced comparison, the optimum can sit outside the solver's reach.
market = smq.validate(2, [[2, 1], [0, 3]], [[0, 1], [1, 0]])
men_order, women_order = smq.popularity_orders(market)
solver = smq.lex_male_alpha_gs(market, 1)
optimum = smq.lex_optimum(market, 1, men_order, women_order)
print("\ncaveat market:", smq.serialize_instance(market))
print("  popularity orders:", [smq.man_name(m) for m in men_order],
      [smq.woman_name(w) for w in women_order])
print("  guided solver:     ", solver.partner_of_man)
print("  enumerated optimum:", optimum.partner_of_man)
solver_key, optimum_key = (smq.lex_key(m, men_order, women_order) for m in (solver, optimum))
print("  lex keys (popularity rank of each man's partner, men by popularity):",
      solver_key, "vs", optimum_key)
assert optimum_key < solver_key
assert smq.blocking_pairs(market, solver, "alpha", 1).stable
print("  both are stable; only the lexicographic ranking differs")
