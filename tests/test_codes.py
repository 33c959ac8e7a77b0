import random

import numpy as np
import pytest

from leecodes import charsums as cs
from leecodes import codes
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
        keys.append(f.coeffs(a) + f.coeffs(b))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_defining_set_deterministic(defining_sets):
    D1 = defining_sets(3, 3)
    D2 = codes.build_defining_set(make_field(3, 3))
    assert np.array_equal(D1.a, D2.a) and np.array_equal(D1.b, D2.b)


def test_defining_set_needs_zero_first():
    with pytest.raises(ValueError):
        codes.DefiningSet(make_field(3, 2), [1, 0])


def test_defining_set_census():
    census = codes.defining_set_census(make_field(3, 3))
    assert census["nonzero_count"] == 80
    # the unit-only reading would give a different (smaller) length
    assert census["unit_count"] < census["nonzero_count"]


def test_build_defining_set_budget():
    # the scan reads each of the q^m = 27 elements once
    assert len(codes.build_defining_set(make_field(3, 3), budget=27)) == 80
    with pytest.raises(BudgetExceededError):
        codes.build_defining_set(make_field(3, 3), budget=26)


# -- codewords ---------------------------------------------------------------

def test_zero_message_gives_zero_codeword(defining_sets):
    f = make_field(3, 3)
    D = defining_sets(3, 3)
    c = codes.codeword(RingElement(f, 0, 0), D)
    assert lee_weight(c) == 0


def test_codeword_matches_scalar_ring_evaluation(defining_sets):
    # each coordinate is the ring trace of x * d_i, expanded through the base
    rng = random.Random(4321)
    for q, m in [(3, 3), (5, 3), (7, 2)]:
        f = make_field(q, m)
        D = defining_sets(q, m)
        for _ in range(100):
            x = RingElement(f, rng.randrange(f.order), rng.randrange(f.order))
            c = codes.codeword(x, D)
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
            w = lee_weight(codes.codeword(RingElement(f, alpha, beta), D))
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
            c = codes.codeword(RingElement(f, alpha, beta), D)
            w = lee_weight(c)
            lee[w] = lee.get(w, 0) + 1
            comp = tuple(int(v) for v in np.bincount(gray_map(c), minlength=q))
            cwe[comp] = cwe.get(comp, 0) + 1
    assert lee == codes.lee_spectrum_bruteforce(D).entries
    assert cwe == codes.cwe_bruteforce(D).entries


def test_bruteforce_budget(defining_sets):
    D = codes.build_defining_set(make_field(3, 5))  # fresh instance, empty cache
    with pytest.raises(BudgetExceededError):
        # the transform and H need m q^(m+2) + q^(m+1) = 11664 steps
        codes.lee_spectrum_bruteforce(D, budget=10**4)


def test_lee_and_cwe_calls_share_one_count(monkeypatch):
    D = codes.build_defining_set(make_field(3, 3))  # fresh instance, empty cache
    calls = []
    compositions = codes._compositions

    def counting(*args):
        calls.append(args)
        return compositions(*args)

    monkeypatch.setattr(codes, "_compositions", counting)
    assert codes.lee_spectrum_bruteforce(D).entries == BRUTE_LEE[(3, 3)]
    assert codes.cwe_bruteforce(D).entries == codes.cwe_closed(3, 3).entries
    assert len(calls) == 1


@pytest.mark.parametrize("route,other", [("lee_spectrum_bruteforce", "cwe_bruteforce"),
                                         ("cwe_bruteforce", "lee_spectrum_bruteforce")])
def test_public_counts_never_call_each_other(route, other, monkeypatch):
    # a wrapper around one public count (the benchmark's tracer) must time only its own work
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{route} called {other}")

    monkeypatch.setattr(codes, other, unreachable)
    D = codes.build_defining_set(make_field(5, 3))  # fresh instance, empty cache
    spec = getattr(codes, route)(D)
    expected = BRUTE_LEE[(5, 3)] if route == "lee_spectrum_bruteforce" else codes.cwe_closed(5, 3).entries
    assert spec.entries == expected


def test_codeword_map_is_injective(defining_sets):
    for (q, m) in [(3, 2), (3, 3)]:
        f = make_field(q, m)
        D = defining_sets(q, m)
        rows = []
        for alpha in range(f.order):
            for beta in range(f.order):
                rows.append(gray_map(codes.codeword(RingElement(f, alpha, beta), D)))
        uniq = np.unique(np.stack(rows), axis=0)
        assert uniq.shape[0] == q ** (2 * m)


# -- closed forms ---------------------------------------------------------------

@pytest.mark.parametrize("q,m", CLOSED_EQ_BRUTE_PAIRS)
def test_lee_closed_equals_brute(q, m, defining_sets):
    closed = codes.lee_spectrum_closed(q, m)
    # at the default budget: the estimate prices the histogram count, which
    # admits every pair here
    brute = codes.lee_spectrum_bruteforce(defining_sets(q, m))
    assert closed.entries == brute.entries


@pytest.mark.parametrize("q,m", CLOSED_EQ_BRUTE_PAIRS)
def test_cwe_closed_equals_brute(q, m, defining_sets):
    closed = codes.cwe_closed(q, m)
    brute = codes.cwe_bruteforce(defining_sets(q, m))
    assert closed.entries == brute.entries


@pytest.mark.parametrize("q,m", [(q, m) for q, m in CLOSED_EQ_BRUTE_PAIRS if q**m <= 2048])
def test_trace_table_matches_dense_oracle(q, m, defining_sets):
    # the histograms the count reads, H[x, s] = #{z in Z : Tr(x z) = s}, against
    # the dense product table wherever that is built
    D = defining_sets(q, m)
    f = D.field
    T = f.trace_array[f.mul_array[:, D.zeros]]
    assert np.array_equal(codes._enumeration_tables(D),
                          np.stack([(T == s).sum(1) for s in range(q)], 1))


@pytest.mark.parametrize("q,m", [(3, 9), (13, 4)])
def test_trace_histogram_rows_above_dense_table_limit(q, m, defining_sets):
    # rows of H at random x: the digit product with W, and Tr of the products x z
    D = defining_sets(q, m)
    f = D.field
    H = codes._enumeration_tables(D)
    W = codes._trace_rows(D)
    for x in np.random.default_rng(q * m).integers(0, f.order, 200).tolist():
        assert np.array_equal(H[x], np.bincount(np.array(f.coeffs(x)) @ W % q, minlength=q))
        assert np.array_equal(H[x], np.bincount(f.trace_array[f.mul_row(x)[D.zeros]], minlength=q))


@pytest.mark.parametrize("q,m", CLOSED_EQ_BRUTE_PAIRS)
def test_gram_matrix_routes_match_product_routes(q, m, defining_sets):
    # W = Tm d(Z)^T and the Q grid against Tr of the products x^i z and x x,
    # read through the log/antilog tables
    D = defining_sets(q, m)
    f = D.field
    W = np.stack([f.trace_array[f.mul_row(q**i)[D.zeros]] for i in range(m)])
    assert np.array_equal(codes._trace_rows(D), W)
    assert np.array_equal(f.trace_sq_array, f.trace_array[f.power_row(2)])
    assert codes.gray_rank(D) == 2 * codes._rank_mod_q(W, q)


@pytest.mark.parametrize("q,m", [(3, 4), (7, 3)])
def test_count_refuses_a_row_of_h_off_its_class(q, m):
    # H[x] depends only on Q(x) and on whether x = 0; a row changed inside its
    # class, keeping its sum, must stop the count
    D = codes.build_defining_set(make_field(q, m))  # fresh instance, empty cache
    H = codes._enumeration_tables(D).copy()
    x = D.field.order - 1  # not the first of its class, which starts at 1 or later
    H[x, 0] += 1
    H[x, 1] -= 1
    D._cache["H"] = H
    with pytest.raises(AssertionError, match="class"):
        codes.cwe_bruteforce(D)


def test_closed_values_must_divide_exactly():
    with pytest.raises(NonIntegralValueError):
        codes._exact(7, 2)
    with pytest.raises(NonIntegralExponentError):
        codes._exact(7, 2, exponent=True)
    assert codes._exact(-8, 4) == -2


def test_closed_forms_raise_on_a_non_integral_gauss_term(monkeypatch):
    # with g = 1 in place of +-q^(m/2), g/q is not an integer: a multiplicity
    # of the Lee table and an exponent of the CWE come out fractional
    monkeypatch.setattr(codes, "quadratic_gauss_sum", lambda q, m: GaussValue(q, 1, 0, 0))
    with pytest.raises(NonIntegralValueError):
        codes.lee_spectrum_closed(3, 4)
    with pytest.raises(NonIntegralExponentError):
        codes.cwe_closed(3, 4)


def test_closed_form_parameter_errors():
    with pytest.raises(UnsupportedParametersError):
        codes.lee_spectrum_closed(3, 1)
    with pytest.raises(UnsupportedParametersError):
        codes.cwe_closed(3, 1)


def test_spectrum_mass():
    for (q, m) in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]:
        spec = codes.lee_spectrum_closed(q, m)
        assert sum(spec.entries.values()) == q ** (2 * m)
        cwe = codes.cwe_closed(q, m)
        assert sum(cwe.entries.values()) == q ** (2 * m)


def _second_power_moment(q, m, N, P):
    """sum(wt^2) over all q^(2m) messages of a Gray image with N coordinates,
    each a nonzero linear form of the message, P ordered pairs of them
    proportional: a coordinate is nonzero on (q-1)q^(2m-1) messages, and two
    independent ones together on (q-1)^2 q^(2m-2) (MacWilliams-Sloane, Ch. 5)."""
    return ((N + P) * (q - 1) * q ** (2 * m - 1)
            + (N * (N - 1) - P) * (q - 1) ** 2 * q ** (2 * m - 2))


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 3), (5, 4),
                                 (3, 8), (5, 7), (13, 6), (3, 21)])
def test_closed_spectrum_second_power_moment(q, m):
    # Z is closed under F_q* scaling, so the form of a coordinate (a, b) has
    # q - 2 other multiples in its Gray half and q - 1, the multiples of (b, a),
    # in the other: P = N(2q - 3).  No enumeration, so it reaches any (q, m)
    spec = codes.lee_spectrum_closed(q, m)
    N = codes.gray_image_length(q, m)
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


def test_five_weight_property_odd_degree():
    for (q, m) in [(3, 3), (3, 5), (5, 3), (7, 3)]:
        spec = codes.lee_spectrum_closed(q, m)
        assert len(spec.nonzero_weights()) == 5


def test_cwe_marginal_consistency(defining_sets):
    for (q, m) in [(3, 2), (3, 3), (3, 4), (5, 3)]:
        cwe = codes.cwe_bruteforce(defining_sets(q, m))
        lee = codes.lee_spectrum_bruteforce(defining_sets(q, m))
        assert cwe.to_lee().entries == lee.entries


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
    assert codes.cwe_closed(3, 4).entries == {
        (880, 0, 0): 1,
        (376, 252, 252): 120,
        (340, 270, 270): 400,
        (304, 288, 288): 3600,
        (268, 306, 306): 2400,
        (124, 378, 378): 40,
    }
    # enumeration-verified odd-degree compositions
    assert codes.cwe_closed(3, 3).entries == {
        (160, 0, 0): 1,
        (88, 36, 36): 24,
        (64, 48, 48): 180,
        (52, 54, 54): 368,
        (40, 60, 60): 144,
        (16, 72, 72): 12,
    }


def test_gray_image_length():
    assert codes.gray_image_length(3, 3) == 160
    assert codes.gray_image_length(3, 4) == 880
    assert codes.gray_image_length(3, 5) == 13120
    assert codes.gray_image_length(5, 2) == 0


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
        rows.append(gray_map(codes.codeword(x, D)))
    sampled_rank = codes._rank_mod_q(np.stack(rows), 3)
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
        assert codes._rank_mod_q(batch, q).tolist() == expected
        assert [codes._rank_mod_q(mat, q) for mat in batch] == expected
    assert codes._rank_mod_q(np.zeros((3, 0, 4), dtype=int), q).tolist() == [0, 0, 0]


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (5, 3)])
def test_gray_rank_matches_ring_route(q, m, defining_sets):
    # the Gray images of the basis messages x^j and u x^j by the ring route
    f = make_field(q, m)
    D = defining_sets(q, m)
    rows = [gray_map(codes.codeword(RingElement(f, a, b), D))
            for j in range(m) for a, b in ((q**j, 0), (0, q**j))]
    assert codes.gray_dimension(D).rank == codes._rank_mod_q(np.stack(rows), q)


def test_spectrum_container_validation():
    with pytest.raises(NonIntegralValueError):
        codes.LeeSpectrum({0: 1, 4: 2}, total=5)
    with pytest.raises(NonIntegralValueError):
        codes.CweSpectrum({(2, 1): 1}, total=1, gray_length=4)


def test_records_are_immutable_values():
    spec = codes.LeeSpectrum({0: 1, 4: 2}, 3)
    assert spec == codes.LeeSpectrum(entries={0: 1, 4: 2}, total=3)
    assert spec != codes.LeeSpectrum({0: 3}, 3)
    with pytest.raises(AttributeError):
        spec.total = 4
    with pytest.raises(TypeError):
        codes.LeeSpectrum({0: 1}, 1, 1)
    with pytest.raises(TypeError):
        codes.LeeSpectrum({0: 1}, totl=1)
    with pytest.raises(TypeError):
        hash(spec)  # its entries are a dict
    report = codes.GrayReport(6, 72, 160, 3)
    assert hash(report) == hash(codes.GrayReport(6, 72, 160, module_generators=3))
    assert repr(report) == "GrayReport(rank=6, min_lee_weight=72, gray_length=160, module_generators=3)"
