import cmath
import random

import numpy as np
import pytest

from leecodes import charsums as cs
from leecodes.errors import (
    BudgetExceededError,
    NonIntegralValueError,
    ZeroLeadingCoefficientError,
    ZeroParameterError,
)
from leecodes.gf import make_field, root_of_unity

GAUSS_PAIRS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)]
GAUSS_INT_PAIRS = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 1), (5, 2), (5, 3), (7, 2), (7, 3),
                   (11, 3), (13, 2), (13, 3)]
IDENTITY_PAIRS = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]
EXHAUSTIVE_PAIRS = [(3, 2), (3, 3)]
SAMPLED_PAIRS = [(3, 4), (5, 2), (5, 3)]


# -- GaussValue ----------------------------------------------------------

def test_gauss_value_examples():
    gbar3 = cs.gauss_sum_closed(make_field(3, 1), "base")
    assert (gbar3.sign, gbar3.i_power, gbar3.half_exp) == (1, 1, 1)  # i * sqrt(3)
    assert abs(gbar3.embedding - 1j * 3**0.5) < 1e-12

    g32 = cs.gauss_sum_closed(make_field(3, 2), "extension")
    assert g32.as_int() == 3

    g33 = cs.gauss_sum_closed(make_field(3, 3), "extension")
    assert abs(g33.embedding - (-3j * 27**0.5 / 3)) < 1e-9  # -3*sqrt(3) i
    assert not g33.is_real_integer
    with pytest.raises(NonIntegralValueError):
        g33.as_int()

    g34 = cs.gauss_sum_closed(make_field(3, 4), "extension")
    assert g34.as_int() == -9
    g52 = cs.gauss_sum_closed(make_field(5, 2), "extension")
    assert g52.as_int() == -5


def test_gauss_value_products_match_embeddings():
    rng = random.Random(42)
    vals = [
        cs.GaussValue(3, rng.choice([1, -1]), rng.randrange(4), rng.randrange(6))
        for _ in range(60)
    ]
    for _ in range(1000):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        assert (a * b) * c == a * (b * c)
        prod = a * b
        assert abs(prod.embedding - a.embedding * b.embedding) <= 1e-9 * abs(prod.embedding)
        assert prod.magnitude_squared == a.magnitude_squared * b.magnitude_squared


@pytest.mark.parametrize("q,m", GAUSS_PAIRS)
def test_gauss_closed_vs_oracle(q, m):
    f = make_field(q, m)
    for level in ("extension", "base"):
        closed = cs.gauss_sum(f, level, mode="closed").embedding
        oracle = cs.gauss_sum(f, level, mode="oracle")
        assert abs(closed - oracle) <= 1e-6 * abs(oracle)
        size = q**m if level == "extension" else q
        assert abs(abs(oracle) ** 2 - size) <= 1e-9 * size


def test_gauss_oracle_budget():
    with pytest.raises(BudgetExceededError):
        cs.gauss_sum_oracle(make_field(3, 3), budget=10)
    with pytest.raises(BudgetExceededError):
        cs.gauss_sum(make_field(3, 3), mode="oracle", budget=10)


def exact_int_from_histogram(q, hist):
    """sum_k hist[k] zeta_q^k as a rational integer: h[0] - h[1] when h[1] = ... = h[q-1]."""
    hist = [int(v) for v in hist]
    tail = hist[1:]
    if any(v != tail[0] for v in tail):
        raise NonIntegralValueError("root-of-unity sum is not a rational integer")
    return hist[0] - tail[0]


def _gauss_histogram(f):
    """h[k] = sum of eta(r) over Tr(r) = k, so that G = sum_k h[k] zeta_q^k."""
    return (np.bincount(f.trace_sq_array, minlength=f.q)
            - np.bincount(f.trace_array, minlength=f.q)).astype(np.int64)


@pytest.mark.parametrize("q,m", GAUSS_INT_PAIRS)
def test_gauss_int_matches_oracle_histogram(q, m):
    # exact in Z[zeta_q]: a product of two sums is the cyclic convolution of their histograms
    f = make_field(q, m)
    hist = _gauss_histogram(f)
    if m % 2:
        hist = cs._cyclic_convolve(hist, _gauss_histogram(f.prime_subfield()))
    assert cs._gauss_int(f) == exact_int_from_histogram(q, hist)


# each closed form at (3, 2) with its parameters after the field
CLOSED_FORMS = [
    (cs.square_trace_count, (0,)),
    (cs.square_trace_char_sum, (0,)),
    (cs.square_trace_pair_count, (0, 1)),
    (cs.nested_char_sum, ("single", 1, 1)),
    (cs.nested_char_sum, ("split", 1, 1)),
    (cs.nested_char_sum, ("coupled", 1, 1, 1)),
    (cs.zero_trace_pair_count, (0, 1, 1)),
    (cs.zero_trace_pair_count, (1, 1, 1)),
]


@pytest.mark.parametrize("fn,params", CLOSED_FORMS)
def test_closed_forms_refuse_an_irrational_gauss_sum(monkeypatch, fn, params):
    # sqrt(3) stands in for G_2 = 3
    monkeypatch.setattr(cs, "gauss_sum_closed",
                        lambda f, level="extension": cs.GaussValue(f.q, 1, 0, 1))
    with pytest.raises(NonIntegralValueError):
        fn(make_field(3, 2), *params)


@pytest.mark.parametrize("fn,params", [(cs.square_trace_count, (0,)),
                                       (cs.square_trace_pair_count, (0, 1)),
                                       (cs.zero_trace_pair_count, (0, 1, 1)),
                                       (cs.zero_trace_pair_count, (1, 1, 1))])
def test_counts_refuse_a_numerator_that_does_not_divide(monkeypatch, fn, params):
    # g = 1 in place of G_2 = 3 leaves q^m + (q - 1) g and its kin prime to q
    monkeypatch.setattr(cs, "_gauss_int", lambda f: 1)
    with pytest.raises(NonIntegralValueError):
        fn(make_field(3, 2), *params)


# -- quadratic polynomial sums --------------------------------------------

def test_quadratic_sum_reduces_to_gauss():
    f = make_field(3, 3)
    g = cs.gauss_sum_closed(f, "extension").embedding
    assert abs(cs.quadratic_sum(f, 1, 0, 0) - g) < 1e-9
    f9 = make_field(3, 2)
    g9 = cs.gauss_sum_closed(f9, "extension").embedding
    squares = {f9.mul(y, y) for y in f9.elements()}
    nonsquare = next(x for x in f9.elements() if x not in squares)
    val = cs.quadratic_sum(f9, nonsquare, 0, 0)
    assert abs(val + g9) < 1e-9


def test_quadratic_sum_closed_vs_oracle_random():
    f = make_field(3, 3)
    rng = random.Random(2024)
    for _ in range(50):
        b2 = rng.randrange(1, f.order)
        b1 = rng.randrange(f.order)
        b0 = rng.randrange(f.order)
        closed = cs.quadratic_sum(f, b2, b1, b0, mode="closed")
        oracle = cs.quadratic_sum(f, b2, b1, b0, mode="oracle")
        assert abs(closed - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_oracles_run_above_dense_table_limit():
    # q^m = 6561 > 2048 refuses mul_array; the quadratic, nested and pair-count
    # oracles read one product row per fixed factor instead
    f = make_field(3, 8)
    with pytest.raises(BudgetExceededError):
        f.mul_array
    rng = random.Random(8)
    for _ in range(4):
        b2, b1, b0 = rng.randrange(1, f.order), rng.randrange(f.order), rng.randrange(f.order)
        closed = cs.quadratic_sum(f, b2, b1, b0, mode="closed")
        oracle = cs.quadratic_sum(f, b2, b1, b0, mode="oracle")
        assert abs(closed - oracle) <= 1e-6 * max(1.0, abs(oracle))
        a, b, lam = rng.randrange(1, f.order), rng.randrange(1, f.order), rng.randrange(1, 3)
        for kind in ("single", "split", "coupled"):
            assert (cs.nested_char_sum(f, kind, b, lam, alpha=a)
                    == cs.nested_char_sum(f, kind, b, lam, alpha=a, mode="oracle"))
        for alpha in (0, a):
            assert (cs.zero_trace_pair_count(f, alpha, b, lam).value
                    == cs.zero_trace_pair_count(f, alpha, b, lam, mode="oracle").value)


def test_quadratic_sum_rejects_zero_lead():
    with pytest.raises(ZeroLeadingCoefficientError):
        cs.quadratic_sum(make_field(3, 2), 0, 1, 1)


# -- histogram collapse ----------------------------------------------------

def test_exact_int_from_histogram():
    assert exact_int_from_histogram(3, [5, 2, 2]) == 3
    with pytest.raises(NonIntegralValueError):
        exact_int_from_histogram(3, [5, 2, 1])
    val = cs.embed_histogram(3, [5, 2, 2])
    assert abs(val - 3) < 1e-9


# -- single and pair counts -------------------------------------------------

def test_square_trace_count_examples():
    f = make_field(3, 3)
    assert cs.square_trace_count(f, 0).value == 9
    assert cs.square_trace_count(f, 0).branch == "s=0, m odd"
    assert cs.square_trace_count(f, 1).value == 6
    assert sum(cs.square_trace_count(f, s).value for s in range(3)) == 27


@pytest.mark.parametrize("q,m", IDENTITY_PAIRS)
def test_square_trace_count_closed_vs_oracle_all_s(q, m):
    f = make_field(q, m)
    for s in range(q):
        assert cs.square_trace_count(f, s).value == cs.square_trace_count(f, s, mode="oracle").value


def test_square_trace_char_sum_examples():
    assert cs.square_trace_char_sum(make_field(3, 3), 0) == 0
    assert cs.square_trace_char_sum(make_field(3, 2), 0) == 6  # (q-1)G with G=3
    assert cs.square_trace_char_sum(make_field(3, 3), 1) == -9


@pytest.mark.parametrize("q,m", IDENTITY_PAIRS)
def test_square_trace_char_sum_closed_vs_oracle_all_s(q, m):
    f = make_field(q, m)
    for s in range(q):
        assert cs.square_trace_char_sum(f, s) == cs.square_trace_char_sum(f, s, mode="oracle")


def test_square_trace_pair_count_examples():
    assert cs.square_trace_pair_count(make_field(3, 3), 0, 0).value == 81
    assert cs.square_trace_pair_count(make_field(3, 2), 0, 0).value == 25
    total = sum(
        cs.square_trace_pair_count(make_field(3, 3), s, t).value for s in range(3) for t in range(3)
    )
    assert total == 3**6


@pytest.mark.parametrize("q,m", IDENTITY_PAIRS)
def test_square_trace_pair_count_closed_vs_oracle_all_st(q, m):
    f = make_field(q, m)
    total = 0
    for s in range(q):
        for t in range(q):
            c = cs.square_trace_pair_count(f, s, t).value
            assert c == cs.square_trace_pair_count(f, s, t, mode="oracle").value
            total += c
    assert total == f.order**2


# -- triple/quintuple sums ---------------------------------------------------

def test_nested_char_sum_examples():
    f = make_field(3, 3)
    beta0 = next(b for b in range(1, 27) if f.trace(f.mul(b, b)) == 0)
    assert cs.nested_char_sum(f, "single", beta0, 1) == 0
    for b in (1, 2, 5, beta0):
        assert cs.nested_char_sum(f, "split", b, 1) == 0  # odd degree kills the factor
    with pytest.raises(ZeroParameterError):
        cs.nested_char_sum(f, "single", 0, 1)
    with pytest.raises(ZeroParameterError):
        cs.nested_char_sum(f, "single", 1, 0)
    with pytest.raises(ZeroParameterError):
        cs.nested_char_sum(f, "coupled", 1, 1, alpha=0)


@pytest.mark.parametrize("q,m", EXHAUSTIVE_PAIRS)
def test_nested_char_sums_exhaustive(q, m):
    f = make_field(q, m)
    for beta in range(1, f.order):
        for lam in range(1, q):
            for kind in ("single", "split"):
                assert cs.nested_char_sum(f, kind, beta, lam) == cs.nested_char_sum(
                    f, kind, beta, lam, mode="oracle"
                ), (kind, beta, lam)
    for alpha in range(1, f.order):
        for beta in range(1, f.order):
            for lam in range(1, q):
                assert cs.nested_char_sum(f, "coupled", beta, lam, alpha=alpha) == cs.nested_char_sum(
                    f, "coupled", beta, lam, alpha=alpha, mode="oracle"
                ), (alpha, beta, lam)


@pytest.mark.parametrize("q,m", SAMPLED_PAIRS)
def test_nested_char_sums_sampled(q, m):
    f = make_field(q, m)
    rng = random.Random(1000 + 10 * q + m)
    for _ in range(100):
        alpha = rng.randrange(1, f.order)
        beta = rng.randrange(1, f.order)
        lam = rng.randrange(1, q)
        for kind in ("single", "split"):
            assert cs.nested_char_sum(f, kind, beta, lam) == cs.nested_char_sum(
                f, kind, beta, lam, mode="oracle"
            )
        assert cs.nested_char_sum(f, "coupled", beta, lam, alpha=alpha) == cs.nested_char_sum(
            f, "coupled", beta, lam, alpha=alpha, mode="oracle"
        )


# -- the pair count ------------------------------------------------------------

def test_pair_count_examples():
    f = make_field(3, 3)
    assert cs.zero_trace_pair_count(f, 0, 0, 1).value == 0
    zeros = [x for x in range(1, 27) if f.trace(f.mul(x, x)) == 0]
    for a in zeros[:3]:
        for b in zeros[:3]:
            assert cs.zero_trace_pair_count(f, a, b, 1).value == 27  # q^{2m-3} when a trace vanishes
    for alpha in (1, 2, zeros[0]):
        assert cs.zero_trace_pair_count(f, alpha, 0, 1).value == cs.zero_trace_pair_count(f, 0, alpha, 1).value
    with pytest.raises(ZeroParameterError):
        cs.zero_trace_pair_count(f, 1, 1, 0)


@pytest.mark.parametrize("q,m", EXHAUSTIVE_PAIRS)
def test_pair_count_exhaustive(q, m):
    f = make_field(q, m)
    for alpha in range(f.order):
        for beta in range(f.order):
            for lam in range(1, q):
                closed = cs.zero_trace_pair_count(f, alpha, beta, lam).value
                oracle = cs.zero_trace_pair_count(f, alpha, beta, lam, mode="oracle").value
                assert closed == oracle, (alpha, beta, lam, closed, oracle)


@pytest.mark.parametrize("q,m", SAMPLED_PAIRS)
def test_pair_count_sampled(q, m):
    f = make_field(q, m)
    rng = random.Random(2000 + 10 * q + m)
    for _ in range(100):
        alpha = rng.randrange(f.order)
        beta = rng.randrange(f.order)
        lam = rng.randrange(1, q)
        assert cs.zero_trace_pair_count(f, alpha, beta, lam).value == cs.zero_trace_pair_count(
            f, alpha, beta, lam, mode="oracle"
        ).value


@pytest.mark.parametrize("q,m", EXHAUSTIVE_PAIRS + [(3, 4)])
def test_pair_count_lambda_independent(q, m):
    f = make_field(q, m)
    rng = random.Random(77)
    pairs = (
        [(a, b) for a in range(f.order) for b in range(f.order)]
        if f.order <= 27
        else [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(100)]
    )
    for a, b in pairs:
        vals = {cs.zero_trace_pair_count(f, a, b, lam, mode="oracle").value for lam in range(1, q)}
        assert len(vals) == 1


@pytest.mark.parametrize("q,m", EXHAUSTIVE_PAIRS)
def test_pair_count_partition_completeness(q, m):
    # summing the lambda classes and the zero-sum class recovers the pair count
    f = make_field(q, m)
    zeros = [x for x in range(f.order) if f.trace(f.mul(x, x)) == 0]
    n00 = cs.square_trace_pair_count(f, 0, 0, mode="oracle").value
    for alpha in range(f.order):
        for beta in range(f.order):
            lam_total = sum(cs.zero_trace_pair_count(f, alpha, beta, lam, mode="oracle").value
                            for lam in range(1, q))
            zero_class = sum(
                1
                for a in zeros
                for b in zeros
                if f.trace(f.add(f.mul(alpha, b), f.mul(beta, a))) == 0
            )
            assert lam_total + zero_class == n00


# -- every count and nested sum from S, on the oracles alone -----------------

CHAIN_PAIRS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3)]  # (5, 2): Z = {0}


@pytest.mark.parametrize("q,m", CHAIN_PAIRS)
def test_oracles_follow_from_one_character_sum(q, m):
    # q #{Tr(a^2) = s} = q^m + S(s), and the completed square sum_{x != 0, a}
    # zeta^{x Tr(a^2) + z Tr(c a)} = S(Tr(c^2)) = R(c) for c != 0, R(0) = q^m + S(0)
    f = make_field(q, m)
    n = f.order
    S = [cs.square_trace_char_sum(f, s, mode="oracle") for s in range(q)]

    def R(c):
        return n + S[0] if c == 0 else S[f.trace(f.mul(c, c))]

    for s in range(q):
        assert q * cs.square_trace_count(f, s, mode="oracle").value == n + S[s]
        for t in range(q):
            pair = cs.square_trace_pair_count(f, s, t, mode="oracle").value
            assert q * q * pair == (n + S[s]) * (n + S[t])
    if n <= 27:
        triples = [(a, b, lam) for a in range(n) for b in range(n) for lam in range(1, q)]
    else:
        rng = random.Random(3000 + 10 * q + m)
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(1, q)) for _ in range(100)]
    for a, b, lam in triples:
        count = cs.zero_trace_pair_count(f, a, b, lam, mode="oracle").value
        assert q**3 * count == R(0) ** 2 - R(a) * R(b), (a, b, lam)
        if a and b:
            assert cs.nested_char_sum(f, "coupled", b, lam, alpha=a, mode="oracle") == -R(a) * R(b)
    for b, lam in sorted({(b, lam) for _, b, lam in triples if b}):
        single = cs.nested_char_sum(f, "single", b, lam, mode="oracle")
        assert single == -R(b), (b, lam)
        assert cs.nested_char_sum(f, "split", b, lam, mode="oracle") == single * S[0]


# -- naive nested-loop validation of the vectorized oracles -------------------

def _zeta_pow(q, k):
    return root_of_unity(q, k)


def _naive_single_sum(f, beta, lam):
    q = f.q
    total = 0j
    for a in range(f.order):
        for x in range(1, q):
            for z in range(1, q):
                e = (x * f.trace(f.mul(a, a)) + z * f.trace(f.mul(beta, a)) - z * lam) % q
                total += _zeta_pow(q, e)
    return total


def _naive_coupled_sum(f, alpha, beta, lam):
    q = f.q
    total = 0j
    for a in range(f.order):
        ta = f.trace(f.mul(a, a))
        tba = f.trace(f.mul(beta, a))
        for b in range(f.order):
            tb = f.trace(f.mul(b, b))
            tab = f.trace(f.mul(alpha, b))
            for x in range(1, q):
                for y in range(1, q):
                    for z in range(1, q):
                        e = (x * ta + y * tb + z * (tab + tba) - z * lam) % q
                        total += _zeta_pow(q, e)
    return total


def _naive_pair_count(f, alpha, beta, lam):
    count = 0
    for a in range(f.order):
        if f.trace(f.mul(a, a)):
            continue
        for b in range(f.order):
            if f.trace(f.mul(b, b)):
                continue
            if f.trace(f.add(f.mul(alpha, b), f.mul(beta, a))) == lam % f.q:
                count += 1
    return count


def test_vectorized_oracles_match_naive_loops():
    # (3, 2) has q = 3 mod 4 and (5, 2) q = 1 mod 4, where Z = {0}
    for f in (make_field(3, 2), make_field(5, 2)):
        for beta in (1, 2, 3, 4):
            for lam in (1, 2):
                naive = _naive_single_sum(f, beta, lam)
                assert abs(naive.imag) < 1e-9
                assert round(naive.real) == cs.nested_char_sum(f, "single", beta, lam, mode="oracle")
        for (alpha, beta, lam) in [(1, 1, 1), (2, 5, 1), (3, 7, 2), (4, 4, 2)]:
            naive = _naive_coupled_sum(f, alpha, beta, lam)
            assert abs(naive.imag) < 1e-9
            assert round(naive.real) == cs.nested_char_sum(f, "coupled", beta, lam, alpha=alpha,
                                                           mode="oracle")
        for (beta, lam) in [(1, 1), (5, 2), (7, 1)]:
            naive = _naive_coupled_sum(f, 0, beta, lam)  # alpha = 0 drops the coupling: the split sum
            assert abs(naive.imag) < 1e-9
            assert round(naive.real) == cs.nested_char_sum(f, "split", beta, lam, mode="oracle")
        for (alpha, beta, lam) in [(0, 0, 1), (0, 3, 1), (5, 0, 2), (4, 7, 1), (1, 1, 2)]:
            assert (_naive_pair_count(f, alpha, beta, lam)
                    == cs.zero_trace_pair_count(f, alpha, beta, lam, mode="oracle").value)


@pytest.mark.parametrize("q", [181, 191])
def test_joint_at_a_dtype_boundary(q):
    # the key Tr(a^2) q + Tr(c a) stays below 2^15 at q = 181 (int16) and passes it at q = 191
    f = make_field(q, 1)
    for c in (0, 1, q - 1, 57):
        J = np.zeros((q, q), dtype=np.int64)
        for a in f.elements():
            J[f.trace(f.mul(a, a)), f.trace(f.mul(c, a))] += 1
        assert (cs._joint(f, c) == J).all(), c


def test_oracle_budgets():
    f = make_field(3, 3)
    with pytest.raises(BudgetExceededError):
        cs.nested_char_sum(f, "split", 1, 1, mode="oracle", budget=10)
    with pytest.raises(BudgetExceededError):
        cs.zero_trace_pair_count(f, 1, 1, 1, mode="oracle", budget=10)
