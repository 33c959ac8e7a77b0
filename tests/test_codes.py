import random

import numpy as np
import pytest

from leecodes import charsums as cs
from leecodes import codes, defining_set, gf, spectra, sss
from leecodes.errors import (
    BudgetExceededError,
    NonIntegralExponentError,
    NonIntegralValueError,
    UnsupportedParametersError,
)
from leecodes.gf import GaussValue, make_field
from leecodes.ring import RingElement, gray_map, lee_weight

from conftest import BRUTE_LEE, DEFINING_SET_SIZES

CLOSED_EQ_BRUTE_PAIRS = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                         (7, 2), (7, 3), (11, 2), (5, 4), (3, 6),
                         (3, 7), (5, 5), (7, 4), (13, 3), (3, 9),
                         (5, 6), (7, 5), (11, 4), (13, 4), (5, 8),
                         (7, 6), (11, 5)]


# -- defining set ----------------------------------------------------------

@pytest.mark.parametrize("q,m", sorted(DEFINING_SET_SIZES))
def test_defining_set_size(q, m, defining_sets):
    D = defining_sets(q, m)
    assert len(D) == DEFINING_SET_SIZES[(q, m)]
    # size agrees with the closed pair count minus the zero pair
    assert len(D) == cs.square_trace_pair_count(make_field(q, m), 0, 0).value - 1


def test_defining_set_members_and_order(defining_sets):
    f = make_field(3, 3)
    D = defining_sets(3, 3)
    keys = []
    for i in range(len(D)):
        a, b = int(D.a[i]), int(D.b[i])
        assert (a, b) != (0, 0)
        assert f.trace(f.mul(a, a)) == 0
        assert f.trace(f.mul(b, b)) == 0
        keys.append((a, b))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_defining_set_deterministic(defining_sets):
    D1 = defining_sets(3, 3)
    D2 = defining_set.build_defining_set(make_field(3, 3))
    assert np.array_equal(D1.a, D2.a) and np.array_equal(D1.b, D2.b)


def test_defining_set_needs_zero_first():
    with pytest.raises(ValueError):
        defining_set.DefiningSet(make_field(3, 2), [1, 0])


def test_build_defining_set_budget():
    # the scan reads each of the q^m = 27 elements once
    assert len(defining_set.build_defining_set(make_field(3, 3), budget=27)) == 80
    with pytest.raises(BudgetExceededError):
        defining_set.build_defining_set(make_field(3, 3), budget=26)


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3),
                                 (3, 5), (13, 2)])
def test_results_do_not_depend_on_the_order_of_z(q, m):
    # D is a set: another listing of Z, 0 kept first, permutes the coordinates
    f = make_field(q, m)
    D = defining_set.build_defining_set(f)
    rest = D.zeros[1:]
    expected = (codes.cwe_bruteforce(D).entries, sss.gray_rank(D),
                sss.minimal_codewords_exhaustive(D))
    for order in (np.random.default_rng(q * m).permutation(rest), rest[::-1]):
        other = defining_set.DefiningSet(f, np.append(0, order))
        assert (codes.cwe_bruteforce(other).entries, sss.gray_rank(other),
                sss.minimal_codewords_exhaustive(other)) == expected


@pytest.mark.parametrize("q,m", [(q, m) for q in (3, 5, 7, 11, 13) for m in range(1, 7)
                                 if q**m <= 3**9])
def test_zero_count_prices_the_built_z(q, m):
    # |Z| from q and m alone, as the count and the rank test price it before
    # the field is built
    f = make_field(q, m)
    assert defining_set._zero_count(q, m) == defining_set.build_defining_set(f).zeros.size
    assert defining_set._zero_count(q, m) == cs.square_trace_count(f, 0).value


# -- codewords ---------------------------------------------------------------

def test_zero_message_gives_zero_codeword(defining_sets):
    f = make_field(3, 3)
    D = defining_sets(3, 3)
    c = defining_set.codeword(RingElement(f, 0, 0), D)
    assert lee_weight(c) == 0


def test_codeword_matches_scalar_ring_evaluation(defining_sets):
    # each coordinate is the ring trace of x * d_i, expanded through the base
    rng = random.Random(4321)
    for q, m in [(3, 3), (5, 3), (7, 2)]:
        f = make_field(q, m)
        D = defining_sets(q, m)
        for _ in range(100):
            x = RingElement(f, rng.randrange(f.order), rng.randrange(f.order))
            c = defining_set.codeword(x, D)
            i = rng.randrange(len(D))
            expected = (x * D.member(i)).trace()
            assert c[i] == expected
            alpha, beta = x.a, x.b
            a, b = int(D.a[i]), int(D.b[i])
            t1 = f.trace(f.add(f.mul(alpha, a), f.mul(beta, b)))
            t2 = f.trace(f.add(f.mul(beta, a), f.mul(alpha, b)))
            assert (c[i].a, c[i].b) == (t1, t2)


def test_extreme_weight_class_sizes(defining_sets):
    # enumeration-verified: the minimal nonzero weight is carried by the
    # larger of the two extreme classes
    f = make_field(3, 3)
    D = defining_sets(3, 3)
    count72 = 0
    count144 = 0
    for alpha in range(27):
        for beta in range(27):
            w = lee_weight(defining_set.codeword(RingElement(f, alpha, beta), D))
            count72 += w == 72
            count144 += w == 144
    assert count72 == 24
    assert count144 == 12


# -- brute-force spectra -------------------------------------------------------

@pytest.mark.parametrize("q,m", sorted(BRUTE_LEE))
def test_lee_spectrum_bruteforce_frozen(q, m, defining_sets):
    spec = codes.lee_spectrum_bruteforce(defining_sets(q, m))
    assert spec.entries == BRUTE_LEE[(q, m)]
    assert spec.total == q ** (2 * m)


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (5, 2), (7, 2), (5, 3)])
def test_bruteforce_matches_per_message_scan(q, m, defining_sets):
    # independent route: loop messages, evaluate codewords, weigh and count
    # the symbols of their Gray images
    f = make_field(q, m)
    D = defining_sets(q, m)
    lee = {}
    cwe = {}
    for alpha in range(f.order):
        for beta in range(f.order):
            c = defining_set.codeword(RingElement(f, alpha, beta), D)
            w = lee_weight(c)
            lee[w] = lee.get(w, 0) + 1
            comp = tuple(int(v) for v in np.bincount(gray_map(c), minlength=q))
            cwe[comp] = cwe.get(comp, 0) + 1
    assert lee == codes.lee_spectrum_bruteforce(D).entries
    assert cwe == codes.cwe_bruteforce(D).entries


def test_bruteforce_budget(defining_sets):
    D = defining_set.build_defining_set(make_field(3, 5))  # fresh instance, empty cache
    with pytest.raises(BudgetExceededError):
        # the transform and H need m q^(m+2) + q^(m+1) = 11664 steps
        codes.lee_spectrum_bruteforce(D, budget=10**4)


def test_lee_and_cwe_calls_share_one_count(monkeypatch):
    D = defining_set.build_defining_set(make_field(3, 3))  # fresh instance, empty cache
    calls = []
    compositions = codes._compositions

    def counting(*args):
        calls.append(args)
        return compositions(*args)

    monkeypatch.setattr(codes, "_compositions", counting)
    assert codes.lee_spectrum_bruteforce(D).entries == BRUTE_LEE[(3, 3)]
    assert codes.cwe_bruteforce(D).entries == spectra.cwe_closed(3, 3).entries
    assert len(calls) == 1


@pytest.mark.parametrize("route,other", [("lee_spectrum_bruteforce", "cwe_bruteforce"),
                                         ("cwe_bruteforce", "lee_spectrum_bruteforce")])
def test_public_counts_never_call_each_other(route, other, monkeypatch):
    # a wrapper around one public count (the benchmark's tracer) must time only its own work
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{route} called {other}")

    monkeypatch.setattr(codes, other, unreachable)
    D = defining_set.build_defining_set(make_field(5, 3))  # fresh instance, empty cache
    spec = getattr(codes, route)(D)
    expected = BRUTE_LEE[(5, 3)] if route == "lee_spectrum_bruteforce" else spectra.cwe_closed(5, 3).entries
    assert spec.entries == expected


def test_codeword_map_is_injective(defining_sets):
    for (q, m) in [(3, 2), (3, 3)]:
        f = make_field(q, m)
        D = defining_sets(q, m)
        rows = []
        for alpha in range(f.order):
            for beta in range(f.order):
                rows.append(gray_map(defining_set.codeword(RingElement(f, alpha, beta), D)))
        uniq = np.unique(np.stack(rows), axis=0)
        assert uniq.shape[0] == q ** (2 * m)


# -- closed forms ---------------------------------------------------------------

@pytest.mark.parametrize("q,m", CLOSED_EQ_BRUTE_PAIRS)
def test_cwe_closed_equals_brute(q, m, defining_sets):
    closed = spectra.cwe_closed(q, m)
    brute = codes.cwe_bruteforce(defining_sets(q, m))
    assert closed.entries == brute.entries


@pytest.mark.parametrize("q,m", [(q, m) for q, m in CLOSED_EQ_BRUTE_PAIRS if q**m <= 2048])
def test_trace_table_matches_dense_oracle(q, m, defining_sets, mul_table):
    # the histograms the count reads, H[x, s] = #{z in Z : Tr(x z) = s}, against
    # the tests' product table up to the dense-table limit
    D = defining_sets(q, m)
    f = D.field
    T = f.trace_array[mul_table(f)[:, D.zeros]]
    assert np.array_equal(codes._enumeration_tables(D),
                          np.stack([(T == s).sum(1) for s in range(q)], 1))


@pytest.mark.parametrize("q,m", [(3, 9), (13, 4)])
def test_trace_histogram_rows_above_dense_table_limit(q, m, defining_sets):
    # rows of H at random x: the digit product with W, and Tr of the products x z
    D = defining_sets(q, m)
    f = D.field
    H = codes._enumeration_tables(D)
    W = defining_set._trace_rows(D)
    for x in np.random.default_rng(q * m).integers(0, f.order, 200).tolist():
        assert np.array_equal(H[x], np.bincount(np.array(f.coeffs(x)) @ W % q, minlength=q))
        assert np.array_equal(H[x], np.bincount(f.trace_array[f.mul_row(x)[D.zeros]], minlength=q))


@pytest.mark.parametrize("q,m", CLOSED_EQ_BRUTE_PAIRS)
def test_gram_matrix_routes_match_product_routes(q, m, defining_sets):
    # W = Tm d(Z)^T and the Q grid against Tr of the products x^i z and
    # Q(x) = sum_i x_i Tr(x^i x), read through the polynomial product
    D = defining_sets(q, m)
    f = D.field
    T = np.stack([f.trace_array[f.mul_row(q**i)] for i in range(m)])  # T[i, x] = Tr(x^i x)
    W = T[:, D.zeros]
    assert np.array_equal(defining_set._trace_rows(D), W)
    assert np.array_equal(f.trace_sq_array, (f.digit_matrix.T * T.astype(np.int64)).sum(0) % q)
    assert sss.gray_rank(D) == 2 * sss._rank_mod_q(W, q)


def test_trace_rows_at_a_dtype_boundary():
    # W sums m digit products in the narrowest dtype that holds m (q - 1)^2:
    # 2 * 130^2 = 33800 needs int32.  The field's own Gram matrix at (131, 2) is
    # diag(2, 129) and never comes near that bound, so the test puts q - 1 in
    # every entry of Tm, on a fresh field, and takes every element as Z.
    q, m = 131, 2
    f = gf.Field(q, m)
    f.Tm = np.full((m, m), q - 1)
    D = defining_set.DefiningSet(f, np.arange(f.order))
    assert defining_set._trace_rows(D).tolist() == [
        [sum((q - 1) * d for d in f.coeffs(z)) % q for z in range(f.order)]] * m
    j = np.random.default_rng(q * m).integers(0, f.order, 3 * f.order)
    assert np.array_equal(defining_set._trace_rows(D, j), defining_set._trace_rows(D)[:, j])


@pytest.mark.parametrize("q,m", [(3, 3), (3, 4), (5, 3), (7, 2), (5, 2), (13, 2)])
def test_square_classes_match_a_naive_loop(q, m):
    # x = 0, then the first nonzero x of each value of Q = Tr(x^2) in increasing
    # order, and the size of each class; Z = {0} at (5,2) and (13,2)
    f = make_field(q, m)
    Q = [f.trace(f.mul(x, x)) for x in f.elements()]
    values = sorted(set(Q[1:]))
    reps, sizes = defining_set._square_classes(f)
    assert reps.tolist() == [0] + [Q.index(s, 1) for s in values]
    assert sizes.tolist() == [1] + [Q[1:].count(s) for s in values]


@pytest.mark.parametrize("q,m", [(3, 4), (7, 3)])
def test_count_refuses_a_row_of_h_off_its_class(q, m, monkeypatch):
    # H[x] depends only on Q(x) and on whether x = 0; a row changed inside its
    # class, keeping its sum, must stop the count
    D = defining_set.build_defining_set(make_field(q, m))  # fresh instance, empty cache
    H = codes._enumeration_tables(D)
    x = D.field.order - 1  # not the first of its class, which starts at 1 or later
    H[x, 0] += 1
    H[x, 1] -= 1
    monkeypatch.setattr(codes, "_enumeration_tables", lambda D: H)
    with pytest.raises(AssertionError, match="class"):
        codes.cwe_bruteforce(D)


@pytest.mark.parametrize("q,m", [(3, 5), (13, 2)])
def test_trace_rows_builds_the_columns_asked_for(q, m, defining_sets):
    # the columns j, repeats included, equal those of the whole table, as at
    # the dtype boundary of test_trace_rows_at_a_dtype_boundary
    D = defining_sets(q, m)
    j = np.random.default_rng(q * m).integers(0, D.zeros.size, 3 * D.zeros.size)
    assert np.array_equal(defining_set._trace_rows(D, j), defining_set._trace_rows(D)[:, j])


@pytest.mark.parametrize("q,m,reads", [(3, 5, [40]), (5, 4, [32]), (5, 2, [1]),
                                        (3, 13, [104, 416])])
def test_gray_rank_reads_evenly_spaced_columns_first(q, m, reads, monkeypatch):
    # min(|Z|, 8m) columns of rank m settle the rank; at (5,2), Z = {0}, that
    # one column is all of Z and its rank 0 is the rank; at (3,13) the first
    # 104 columns have rank 12 < m, and the next 416 of the 3^12 settle it
    calls = []
    trace_rows = defining_set._trace_rows

    def spy(D, j=slice(None)):
        W = trace_rows(D, j)
        calls.append(W.shape[1])
        return W

    monkeypatch.setattr(sss, "_trace_rows", spy)
    D = defining_set.build_defining_set(make_field(q, m))  # fresh instance, empty cache
    sss.gray_rank(D)
    assert calls[0] == min(D.zeros.size, 8 * m)
    assert calls == reads


@pytest.mark.parametrize("n,c,sizes", [(1000, 8, [8, 32, 128, 512, 1000]),
                                       (512, 8, [8, 32, 128, 512]), (1, 16, [1]),
                                       (40, 40, [40]), (7, 2, [2, 7])])
def test_growing_samples_grow_fourfold_to_all(n, c, sizes):
    samples = list(sss._growing_samples(n, c))
    assert [j.size for j in samples] == sizes
    assert all((np.diff(j) > 0).all() and 0 <= j[0] and j[-1] < n for j in samples)
    assert samples[-1].tolist() == list(range(n))


def test_growing_samples_at_the_rank_tests_largest_n():
    # n = (|Z|^2 - 1)/2 at (3,15): i n passes 2^63 at i > 8.06 10^5, so each
    # index is i (n // k) + i (n % k) // k, never i n // k
    n = (3**28 - 1) // 2
    j = next(sss._growing_samples(n, 2**20))
    assert j[-1] == (2**20 - 1) * n // 2**20 and (np.diff(j) > 0).all()


def test_closed_values_must_divide_exactly():
    with pytest.raises(NonIntegralValueError):
        gf._exact(7, 2)
    with pytest.raises(NonIntegralExponentError):
        gf._exact(7, 2, exponent=True)
    assert gf._exact(-8, 4) == -2


def test_closed_forms_raise_on_a_non_integral_gauss_term(monkeypatch):
    # with g = 1 in place of +-q^(m/2), g/q is not an integer: the CWE's first
    # exponent comes out fractional, and the Lee spectrum, its collapse, with it
    monkeypatch.setattr(spectra, "quadratic_gauss_sum", lambda q, m: GaussValue(q, 1, 0, 0))
    with pytest.raises(NonIntegralExponentError):
        spectra.lee_spectrum_closed(3, 4)
    with pytest.raises(NonIntegralExponentError):
        spectra.cwe_closed(3, 4)


def test_closed_form_parameter_errors():
    with pytest.raises(UnsupportedParametersError):
        spectra.lee_spectrum_closed(3, 1)
    with pytest.raises(UnsupportedParametersError):
        spectra.cwe_closed(3, 1)


def test_spectrum_mass():
    for (q, m) in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]:
        spec = spectra.lee_spectrum_closed(q, m)
        assert sum(spec.entries.values()) == q ** (2 * m)
        cwe = spectra.cwe_closed(q, m)
        assert sum(cwe.entries.values()) == q ** (2 * m)


def _second_power_moment(q, m, N, P):
    """sum(wt^2) over all q^(2m) messages of a Gray image with N coordinates,
    each a nonzero linear form of the message, P ordered pairs of them
    proportional: a coordinate is nonzero on (q-1)q^(2m-1) messages, and two
    independent ones together on (q-1)^2 q^(2m-2) (MacWilliams-Sloane, Ch. 5)."""
    return ((N + P) * (q - 1) * q ** (2 * m - 1)
            + (N * (N - 1) - P) * (q - 1) ** 2 * q ** (2 * m - 2))


SECOND_MOMENT_POINTS = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 3), (5, 4),
                        (3, 8), (5, 7), (13, 6), (3, 21)]


@pytest.mark.parametrize("q,m", SECOND_MOMENT_POINTS)
def test_closed_spectrum_second_power_moment(q, m):
    # Z is closed under F_q* scaling, so the form of a coordinate (a, b) has
    # q - 2 other multiples in its Gray half and q - 1, the multiples of (b, a),
    # in the other: P = N(2q - 3).  No enumeration, so it reaches any (q, m)
    spec = spectra.lee_spectrum_closed(q, m)
    N = spectra.gray_image_length(q, m)
    moment = sum(w * w * c for w, c in spec.entries.items())
    assert moment == _second_power_moment(q, m, N, N * (2 * q - 3))


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (5, 3), (7, 2)])
def test_proportional_gray_coordinates_counted_over_d(q, m, defining_sets):
    # Gray coordinates 2j and 2j + 1 are the forms (alpha, beta) -> Tr(alpha a + beta b)
    # and Tr(alpha b + beta a) at d_j = (a, b); label each form by its smallest
    # F_q* multiple, so proportional forms share a label
    f = make_field(q, m)
    D = defining_sets(q, m)
    x = np.stack([D.a, D.b], axis=1).ravel()
    y = np.stack([D.b, D.a], axis=1).ravel()
    label = np.min([f.mul_row(c)[x] * f.order + f.mul_row(c)[y] for c in range(1, q)], axis=0)
    _, size = np.unique(label, return_counts=True)
    N, P = 2 * len(D), int((size * (size - 1)).sum())
    assert P == N * (2 * q - 3)
    lee = codes.lee_spectrum_bruteforce(D)
    assert sum(w * w * c for w, c in lee.entries.items()) == _second_power_moment(q, m, N, P)


def _symbol_pair_moment(q, m, N, s, t):
    """sum(n_s n_t) over all q^(2m) messages of a Gray image with N coordinates,
    each a nonzero linear form, where for each lambda in F_q* a coordinate has
    one other coordinate lambda times it at lambda = 1 and two at lambda != 1
    (P = N(2q - 3) ordered proportional pairs).  A coordinate is s on q^(2m-1)
    messages; a pair lambda apart is (s, t) on q^(2m-1) if t = lambda s, else
    on none; an independent pair on q^(2m-2) (MacWilliams-Sloane, Ch. 5)."""
    P = N * (2 * q - 3)
    independent = (N * (N - 1) - P) * q ** (2 * m - 2)
    if s == t == 0:  # the coordinate itself and all P/N multiples of it
        return (N + P) * q ** (2 * m - 1) + independent
    if s == 0 or t == 0:  # no multiple of a coordinate that is 0 is nonzero
        return independent
    # lambda = t/s: the coordinate itself and its one partner at s = t, the
    # two partners at s != t
    return 2 * N * q ** (2 * m - 1) + independent


def _check_symbol_pair_moments(cwe, q, m):
    for s in range(q):
        for t in range(q):
            moment = sum(c * comp[s] * comp[t] for comp, c in cwe.entries.items())
            assert moment == _symbol_pair_moment(q, m, cwe.gray_length, s, t), (s, t)


@pytest.mark.parametrize("q,m", SECOND_MOMENT_POINTS + [(31, 12), (3, 41), (13, 20)])
def test_closed_cwe_symbol_pair_moments(q, m):
    # no enumeration, so it reaches any (q, m)
    _check_symbol_pair_moments(spectra.cwe_closed(q, m), q, m)


@pytest.mark.parametrize("q,m", [(3, 3), (5, 3), (7, 2), (3, 4)])
def test_counted_cwe_symbol_pair_moments(q, m, defining_sets):
    _check_symbol_pair_moments(codes.cwe_bruteforce(defining_sets(q, m)), q, m)


def test_five_weight_property_odd_degree():
    for (q, m) in [(3, 3), (3, 5), (5, 3), (7, 3)]:
        spec = spectra.lee_spectrum_closed(q, m)
        assert len(spec.nonzero_weights()) == 5


def test_cwe_per_codeword_symmetry(defining_sets):
    # every composition spreads the nonzero symbols evenly
    for (q, m) in [(3, 3), (3, 4), (5, 3)]:
        cwe = codes.cwe_bruteforce(defining_sets(q, m))
        for comp in cwe.entries:
            assert len(set(comp[1:])) == 1


def test_cwe_zero_composition(defining_sets):
    cwe = codes.cwe_bruteforce(defining_sets(3, 3))
    assert cwe.entries[(160, 0, 0)] == 1


def test_cwe_closed_examples(defining_sets):
    assert spectra.cwe_closed(3, 4).entries == {
        (880, 0, 0): 1,
        (376, 252, 252): 120,
        (340, 270, 270): 400,
        (304, 288, 288): 3600,
        (268, 306, 306): 2400,
        (124, 378, 378): 40,
    }
    # enumeration-verified odd-degree compositions
    assert spectra.cwe_closed(3, 3).entries == {
        (160, 0, 0): 1,
        (88, 36, 36): 24,
        (64, 48, 48): 180,
        (52, 54, 54): 368,
        (40, 60, 60): 144,
        (16, 72, 72): 12,
    }


def test_gray_image_length():
    assert spectra.gray_image_length(3, 3) == 160
    assert spectra.gray_image_length(3, 4) == 880
    assert spectra.gray_image_length(3, 5) == 13120
    assert spectra.gray_image_length(5, 2) == 0


# -- rank and diagnostics ---------------------------------------------------------

def test_gray_dimension_examples(defining_sets):
    rep3 = codes.gray_dimension(defining_sets(3, 3))
    assert (rep3.rank, rep3.min_lee_weight, rep3.gray_length) == (6, 72, 160)
    assert rep3.module_generators == 3
    rep4 = codes.gray_dimension(defining_sets(3, 4))
    assert (rep4.rank, rep4.min_lee_weight, rep4.gray_length) == (8, 504, 880)


def test_rank_matches_sampled_codeword_rows(defining_sets):
    # the generating rows span the same row space as arbitrary codewords
    f = make_field(3, 3)
    D = defining_sets(3, 3)
    rng = random.Random(11)
    rows = []
    for _ in range(40):
        x = RingElement(f, rng.randrange(27), rng.randrange(27))
        rows.append(gray_map(defining_set.codeword(x, D)))
    sampled_rank = sss._rank_mod_q(np.stack(rows), 3)
    assert sampled_rank <= codes.gray_dimension(D).rank == 6


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_batched_rank_matches_sympy(q):
    # sympy's rank over GF(q) is the independent oracle
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    K = GF(q)
    rng = np.random.default_rng(q)
    for rows, cols in [(1, 1), (3, 5), (6, 4), (9, 8), (40, 6)]:
        batch = rng.integers(0, q, size=(16, rows, cols))
        batch[0] = 0  # all zero
        batch[1, rows // 2] = 0  # a zero row
        k = max(1, min(rows, cols) - 2)  # rank-deficient products of thin factors
        batch[2:8] = rng.integers(0, q, (6, rows, k)) @ rng.integers(0, q, (6, k, cols)) % q
        batch[8] -= q  # negative representatives
        expected = [DomainMatrix([[K(int(v)) for v in row] for row in mat], (rows, cols), K).rank()
                    for mat in batch]
        assert sss._rank_mod_q(batch, q).tolist() == expected
        assert [sss._rank_mod_q(mat, q) for mat in batch] == expected
    assert sss._rank_mod_q(np.zeros((3, 0, 4), dtype=int), q).tolist() == [0, 0, 0]


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (5, 3)])
def test_gray_rank_matches_ring_route(q, m, defining_sets):
    # the Gray images of the basis messages x^j and u x^j by the ring route
    f = make_field(q, m)
    D = defining_sets(q, m)
    rows = [gray_map(defining_set.codeword(RingElement(f, a, b), D))
            for j in range(m) for a, b in ((q**j, 0), (0, q**j))]
    assert codes.gray_dimension(D).rank == sss._rank_mod_q(np.stack(rows), q)


def test_spectrum_container_validation():
    with pytest.raises(NonIntegralValueError):
        spectra.LeeSpectrum({0: 1, 4: 2}, total=5)
    with pytest.raises(NonIntegralValueError):
        spectra.CweSpectrum({(2, 1): 1}, total=1, gray_length=4)


def test_records_are_immutable_values():
    spec = spectra.LeeSpectrum({0: 1, 4: 2}, 3)
    assert spec == spectra.LeeSpectrum(entries={0: 1, 4: 2}, total=3)
    assert spec != spectra.LeeSpectrum({0: 3}, 3)
    with pytest.raises(AttributeError):
        spec.total = 4
    with pytest.raises(TypeError):
        spectra.LeeSpectrum({0: 1}, 1, 1)
    with pytest.raises(TypeError):
        spectra.LeeSpectrum({0: 1}, totl=1)
    with pytest.raises(TypeError):
        hash(spec)  # its entries are a dict
    report = codes.GrayReport(6, 72, 160, 3)
    assert hash(report) == hash(codes.GrayReport(6, 72, 160, module_generators=3))
    assert repr(report) == "GrayReport(rank=6, min_lee_weight=72, gray_length=160, module_generators=3)"
