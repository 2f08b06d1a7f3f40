"""Gap-threshold stability: small grudges stop counting.

A couple only blocks a marriage when BOTH of them would gain at least
`alpha` score points by running off together. Raising alpha therefore
enlarges the set of stable marriages, and a voting rule picks a favourite
among the newcomers. Run with `python demos/02_gap_threshold_stability.py`.
"""

import smq

market = smq.validate(
    2,
    men_scores=[[3, 2], [4, 2]],
    women_scores=[[8, 5], [3, 1]],
)

# At threshold 2, m1's one-point edge for w1 over w2 dissolves into
# incomparability; every other comparison survives.
semi = smq.alpha_transform(market, 2)
print("incomparable pairs at alpha=2:")
for side, name in (("men", smq.man_name), ("women", smq.woman_name)):
    for person in range(market.n):
        for a, b in semi.incomparable_pairs(side, person):
            print(f"  {name(person)} cannot separate candidates {a} and {b}")

for alpha in (1, 2, 3):
    stable = smq.enumerate_stable(market, "alpha", alpha)
    print(f"alpha={alpha}: stable matches {[m.partner_of_man for m in stable.marriages()]}")

# alpha=2 leaves two stable marriages and neither dominates the other:
m_a, m_b = smq.enumerate_stable(market, "alpha", 2).marriages()
print("dominance between the two:", smq.dominates(market, m_a, m_b), smq.dominates(market, m_b, m_a))

# Summing the scores each person receives gives popularity orders.
print("men's received totals:  ", smq.score_totals(market.women_scores))
print("women's received totals:", smq.score_totals(market.men_scores))
men_order, women_order = smq.popularity_orders(market)
print("popularity orders:", [smq.man_name(m) for m in men_order], [smq.woman_name(w) for w in women_order])

# The guided solver linearizes the semiorder along those orders and runs
# deferred acceptance; here it agrees with the enumerated optimum.
solver = smq.lex_male_alpha_gs(market, 2)
optimum = smq.lex_optimum(market, 2, men_order, women_order)
print("guided solver:      ", solver.partner_of_man)
print("enumerated optimum: ", optimum.partner_of_man)
assert smq.blocking_pairs(market, solver, "alpha", 2).stable

# What the solver always guarantees: it is the men-optimal stable marriage
# of the strict profile the semiorder linearizes to.
men_optimal = smq.gs(smq.linearize(semi, men_order, women_order), "men")
print("men-optimal on the linearization:", men_optimal.partner_of_man)
assert men_optimal == solver
