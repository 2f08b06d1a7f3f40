import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from smq import Marriage, QuantInstance

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The three fixture instances used throughout: P_A is the tiny two-couple
# market with a unique stable marriage, P_B the market whose gap-2 view has
# an extra stable marriage, P_C the market where the strongest mutual pair
# loses under classical stability.
P_A = QuantInstance(2, ((9, 1), (3, 2)), ((1, 2), (3, 1)))
P_B = QuantInstance(2, ((3, 2), (4, 2)), ((8, 5), (3, 1)))
P_C = QuantInstance(2, ((30, 3), (4, 3)), ((5, 6), (10, 2)))

M1 = Marriage((0, 1))
M2 = Marriage((1, 0))


@st.composite
def instances(draw, min_n=1, max_n=5, max_score=12):
    """Valid instances: per-row distinct scores in 0..max_score."""
    n = draw(st.integers(min_n, max_n))
    row = st.lists(st.integers(0, max_score), min_size=n, max_size=n, unique=True)

    def matrix():
        return tuple(tuple(draw(row)) for _ in range(n))

    return QuantInstance(n, matrix(), matrix())


@st.composite
def instances_with_marriage(draw, min_n=1, max_n=5, max_score=12):
    inst = draw(instances(min_n, max_n, max_score))
    perm = draw(st.permutations(tuple(range(inst.n))))
    return inst, Marriage(tuple(perm))


@st.composite
def tie_heavy_instances(draw, min_n=1, max_n=8):
    # scores from 0..n+3 leave each row at most four unused values, so equal
    # pair strengths, and with them the index tie-break, are common
    n = draw(st.integers(min_n, max_n))
    return draw(instances(min_n=n, max_n=n, max_score=n + 3))


alphas = st.integers(1, 4)


@pytest.fixture
def p_a():
    return P_A


@pytest.fixture
def p_b():
    return P_B


@pytest.fixture
def p_c():
    return P_C
