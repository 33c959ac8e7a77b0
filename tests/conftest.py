import numpy as np
import pytest

from leecodes import build_defining_set, make_field

# enumeration-verified Lee spectra (frozen from definition-level brute force;
# DefiningSet instances memoize their spectra, so sharing them session-wide
# makes the expensive enumerations run once)
BRUTE_LEE = {
    (3, 2): {0: 1, 20: 8, 28: 16, 32: 16, 36: 32, 40: 8},
    (3, 3): {0: 1, 72: 24, 96: 180, 108: 368, 120: 144, 144: 12},
    (3, 4): {0: 1, 504: 120, 540: 400, 576: 3600, 612: 2400, 756: 40},
    (3, 5): {0: 1, 7776: 180, 8640: 13284, 8748: 32480, 8856: 12960, 9720: 144},
    (5, 2): {0: 625},
    (5, 3): {0: 1, 800: 120, 960: 5200, 1000: 5424, 1040: 4800, 1200: 80},
}

DEFINING_SET_SIZES = {
    (3, 2): 24,
    (3, 3): 80,
    (3, 4): 440,
    (3, 5): 6560,
    (5, 2): 0,
    (5, 3): 624,
}


@pytest.fixture(scope="session")
def mul_table():
    """mul_table(f)[a, b] = a b in f, from the polynomial product f._mul_raw
    alone, an oracle for the tests that read every product.  The powers of the
    first g whose powers reach all q^m - 1 nonzero elements, one _mul_raw
    each, give exp and log, and a b = g^(log a + log b) for nonzero a and b:
    q^m products, where the whole table by _mul_raw would take q^(2m)."""
    cache = {}

    def get(f):
        if (f.q, f.m) not in cache:
            n = f.order - 1
            for g in range(1, f.order):
                powers = [1]  # g^k for k below the order of g
                while len(powers) <= n and (p := f._mul_raw(powers[-1], g)) != 1:
                    powers.append(p)
                if len(powers) == n:
                    break
            else:
                raise AssertionError(f"no element of F_{f.q}^{f.m} has order {n}")
            log = np.zeros(f.order, dtype=np.int64)
            log[powers] = np.arange(n)
            table = np.array(powers + powers)[log[:, None] + log]
            table[0] = table[:, 0] = 0
            cache[(f.q, f.m)] = table
        return cache[(f.q, f.m)]

    return get


@pytest.fixture(scope="session")
def defining_sets():
    cache = {}

    def get(q, m):
        if (q, m) not in cache:
            cache[(q, m)] = build_defining_set(make_field(q, m))
        return cache[(q, m)]

    return get
