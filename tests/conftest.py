import pytest
from hypothesis import settings

from baseseq import oracle
from baseseq.seqcore import Kind

# fixed example sequence and no timing limit, so every run checks the
# same examples whatever the machine's speed
settings.register_profile("baseseq", derandomize=True, deadline=None, database=None)
settings.load_profile("baseseq")


@pytest.fixture(scope="session")
def bs_pool():
    return {n: oracle.brute_bs(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def ns_pool():
    return {n: oracle.brute_structured(n, Kind.NS) for n in range(1, 9)}


@pytest.fixture(scope="session")
def nns_pool():
    return {n: oracle.brute_structured(n, Kind.NNS) for n in (2, 4, 6, 8)}


@pytest.fixture(scope="session")
def small_quads(bs_pool, ns_pool, nns_pool):
    """(n, quad) for every oracle quad at n <= 5, all kinds."""
    out = []
    for pool in (bs_pool, ns_pool, nns_pool):
        for n, quads in pool.items():
            if n <= 5:
                out.extend((n, q) for q in quads)
    return out
