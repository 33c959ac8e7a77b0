import random
from collections import Counter

import numpy as np
import pytest

from leecodes import codes, defining_set, spectra, sss
from leecodes.errors import (
    BudgetExceededError,
    DegenerateSpectrumError,
    LengthMismatchError,
    UnsupportedParametersError,
)
from leecodes.gf import make_field
from leecodes.ring import RingElement, gray_map
from leecodes.sss import (
    _columns,
    _leading_digit,
    _witt_classes,
    _zero_set_ranks,
    ab_check,
    covers,
    minimal_codewords_exhaustive,
    minimality_ratios,
)


# -- covers ----------------------------------------------------------------

def test_covers_examples():
    assert covers([1, 0, 2], [0, 0, 0])
    assert not covers([1, 0, 2], [0, 1, 0])
    assert covers([1, 0, 2], [1, 0, 2])
    assert covers([1, 0, 2], [2, 0, 0])


def test_covers_length_mismatch():
    with pytest.raises(LengthMismatchError):
        covers([1, 0], [1, 0, 0])


def test_covers_is_a_preorder():
    rng = random.Random(3)
    vecs = [np.array([rng.randrange(3) for _ in range(12)]) for _ in range(80)]
    for v in vecs:
        assert covers(v, v)
    hits = 0
    for x in vecs:
        for y in vecs:
            if not covers(x, y):
                continue
            for z in vecs:
                if covers(y, z):
                    hits += 1
                    assert covers(x, z)
    assert hits > 0


def test_covers_scalar_invariance():
    rng = random.Random(8)
    for _ in range(100):
        x = np.array([rng.randrange(3) for _ in range(15)])
        c = rng.choice([1, 2])
        cx = (c * x) % 3
        assert covers(x, cx) and covers(cx, x)


# -- ratio condition ----------------------------------------------------------

def _exceeds(ratio, threshold):
    # ratio > threshold for (numerator, denominator) pairs, denominators positive
    return ratio[0] * threshold[1] > threshold[0] * ratio[1]


def _equals(ratio, threshold):
    return ratio[0] * threshold[1] == threshold[0] * ratio[1]


def test_ab_check_examples():
    r5 = ab_check(spectra.lee_spectrum_closed(3, 5), 3)
    assert r5.ab_ratio == (4, 5) and r5.ab_threshold == (2, 3)  # lowest terms
    assert r5.ab_holds
    r3 = ab_check(spectra.lee_spectrum_closed(3, 3), 3)
    assert r3.ab_ratio == (1, 2) and not r3.ab_holds
    r4 = ab_check(spectra.lee_spectrum_closed(3, 4), 3)
    assert r4.ab_ratio == (2, 3)
    assert not r4.ab_holds  # the inequality is strict


def test_ab_check_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        ab_check(spectra.lee_spectrum_closed(5, 2), 5)


def test_minimality_ratios():
    assert minimality_ratios(3, 5).holds
    assert not minimality_ratios(3, 3).holds
    p4 = minimality_ratios(3, 4)
    assert not p4.holds
    assert _exceeds(p4.ratios[0], p4.threshold)  # first even-degree ratio already holds at m=4
    assert _equals(p4.ratios[1], p4.threshold)  # the second is exactly at the bound
    p6 = minimality_ratios(3, 6)
    assert p6.holds and all(_exceeds(r, p6.threshold) for r in p6.ratios)
    p8 = minimality_ratios(3, 8)
    assert p8.holds
    with pytest.raises(UnsupportedParametersError):
        minimality_ratios(3, 1)


def test_closed_ratios_match_spectrum_ratio():
    # the closed ratio equals w_min/w_max from the closed spectrum: the two are
    # the only transcriptions of the extreme weights
    for q in (3, 5, 7, 11, 13, 31):
        for m in range(2, 25):
            spec = spectra.lee_spectrum_closed(q, m)
            if not spec.nonzero_weights():  # D is empty: no ratio to compare
                continue
            report = ab_check(spec, q)
            ratios = minimality_ratios(q, m).ratios
            assert any(_equals(report.ab_ratio, r) for r in ratios), (q, m)


# -- exhaustive minimality -------------------------------------------------------

def _naive_minimality(q, m, defining_sets):
    f = make_field(q, m)
    D = defining_sets(q, m)
    sup = np.stack([gray_map(defining_set.codeword(RingElement(f, alpha, beta), D)) != 0
                    for alpha in range(f.order) for beta in range(f.order)])
    sup = sup[sup.any(axis=1)]  # the nonzero codewords
    if not sup.size:
        return 0, True
    # equal supports get equal verdicts, so each distinct support is tested once
    distinct, count = np.unique(sup, axis=0, return_counts=True)
    s = distinct.astype(np.float32)
    inside = s @ (1 - s).T == 0  # inside[i, j]: support i within support j
    np.fill_diagonal(inside, False)  # distinct supports: containment is strict
    minimal = int(count[~inside.any(axis=0)].sum())
    return minimal, minimal == sup.shape[0]


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (7, 2), (11, 2), (13, 2), (3, 4)])
def test_minimality_scan_matches_naive(q, m, defining_sets):
    # (13, 2) has an empty defining set: no nonzero codeword, so none is dominated
    fast = minimal_codewords_exhaustive(defining_sets(q, m))
    assert fast == _naive_minimality(q, m, defining_sets)


@pytest.mark.parametrize("q,m", [(3, 3), (3, 4)])
def test_minimality_scan_matches_naive_on_a_subfield_zero_set(q, m, monkeypatch):
    # Z = F_q is not the quadric Tr(x^2) = 0, so an isometry of the trace form
    # need not permute its coordinates and minimality need not be constant on
    # a class: at (3,4) one rank per class counts 5940 minimal codewords where
    # the naive oracle counts 5832.  A DefiningSet is the quadric by
    # construction, so Z is set by hand here, and the rank test prices |Z| = q.
    D = defining_set.build_defining_set(make_field(q, m))
    D.zeros = np.arange(q)
    monkeypatch.setattr(sss, "_zero_count", lambda q, m: q)
    assert sss.gray_rank(D) == 2
    naive, by_class = {(3, 3): (648, 648), (3, 4): (5832, 5940)}[q, m]
    assert _naive_minimality(q, m, lambda *_: D) == (naive, True)
    assert minimal_codewords_exhaustive(D) == (by_class, True)


def test_minimality_counts(defining_sets):
    count2, all2 = minimal_codewords_exhaustive(defining_sets(3, 2))
    assert (count2, all2) == (72, False)
    count3, all3 = minimal_codewords_exhaustive(defining_sets(3, 3))
    assert (count3, all3) == (700, False)
    # (3,4) sits exactly on the Ashikhmin-Barg threshold, so only the scan decides it;
    # every point runs at the default budget
    for (q, m), count in {(7, 2): 2328, (3, 4): 6520, (5, 3): 15496, (7, 3): 117300,
                          (5, 4): 390416, (11, 3): 1770220, (13, 3): 4824600,
                          (7, 4): 5764200, (13, 4): 815726640}.items():
        assert minimal_codewords_exhaustive(defining_sets(q, m)) == (count, False)
    # the ratio 26/27 > 2/3 holds at (3,8): every nonzero codeword is minimal
    assert minimal_codewords_exhaustive(defining_sets(3, 8)) == (3**16 - 1, True)


@pytest.mark.parametrize("q,hi", [(3, 3**15), (131, 131**2)])
def test_leading_digit_matches_a_plain_loop(q, hi):
    x = np.concatenate([[0], np.random.default_rng(q).integers(0, hi, 5000)])
    kept = x.copy()

    def leading(v):
        while v >= q:
            v //= q
        return v

    assert _leading_digit(x, q).tolist() == [leading(v) for v in x.tolist()]
    assert np.array_equal(x, kept)  # the caller's array, e.g. Z, is not divided


@pytest.mark.parametrize("q,m", [(3, 3), (5, 3), (7, 2)])
def test_scan_coordinates_cover_each_orbit_of_pairs_once(q, m, defining_sets):
    # the scan reads (a, b) for a in Z1, b in Z, and (0, b) for b in Z1, where Z1
    # holds the nonzero elements of Z with leading digit 1: every nonzero pair
    # of Z x Z is c (a, b) for exactly one of them and one c in F_q*
    f = make_field(q, m)
    Z = defining_sets(q, m).zeros
    Z1 = Z[1:][_leading_digit(Z[1:], q) == 1]
    a = np.concatenate([np.repeat(Z1, Z.size), np.zeros_like(Z1)])
    b = np.concatenate([np.tile(Z, Z1.size), Z1])
    hits = np.zeros((f.order, f.order), dtype=int)
    for c in range(1, q):
        np.add.at(hits, (f.mul_row(c)[a], f.mul_row(c)[b]), 1)
    pairs = np.zeros_like(hits, dtype=bool)
    pairs[np.ix_(Z, Z)] = True
    pairs[0, 0] = False
    assert (hits[pairs] == 1).all() and (hits[~pairs] == 0).all()
    # _columns builds the column (W[:, b], W[:, a]) of each, in this order
    D = defining_sets(q, m)
    W = D.field.trace_columns(D.zeros)
    where = {int(z): j for j, z in enumerate(Z)}
    Z1_index = 1 + np.flatnonzero(_leading_digit(Z[1:], q) == 1)
    expected = np.hstack([W[:, [where[x] for x in b.tolist()]].T,
                          W[:, [where[x] for x in a.tolist()]].T])
    assert np.array_equal(_columns(D, Z1_index, np.arange(a.size)), expected)


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3)])
def test_ab_soundness_implication(q, m, defining_sets):
    spec = codes.lee_spectrum_bruteforce(defining_sets(q, m))
    report = ab_check(spec, q)
    _, all_minimal = minimal_codewords_exhaustive(defining_sets(q, m))
    assert (not report.ab_holds) or all_minimal


def test_minimality_budget(defining_sets):
    with pytest.raises(BudgetExceededError):
        minimal_codewords_exhaustive(defining_sets(5, 4), budget=10**6)


def test_minimality_budget_prices_lines(defining_sets):
    # the price before the field: (q + 1) m q^m = 324 steps for the census and
    # the class passes, and (q^3 + q^2 + q) c (2m)^2 = 39 * 40 * 36 for the subset
    # ranks, on c = min(n, 8mq) = n = 80 / (q - 1) = 40 columns, one per F_q*-orbit
    D = defining_sets(3, 3)
    price = 4 * 3 * 27 + 39 * 40 * 36
    assert minimal_codewords_exhaustive(D, budget=price) == (700, False)
    with pytest.raises(BudgetExceededError, match="class bound"):
        minimal_codewords_exhaustive(D, budget=price - 1)


def test_minimality_budget_prices_full_checks(defining_sets):
    # n = 440 / 2 = 220 columns, c = 8mq = 96 of them first: 2 of the 38
    # classes fall short there and are ranked again on min(n, 4c) = 220
    D = defining_sets(3, 4)
    assert _witt_classes(D.field)[2].size == 38
    estimate = (38 * 96 + 2 * 220) * 8**2
    assert minimal_codewords_exhaustive(D, budget=estimate) == (6520, False)
    with pytest.raises(BudgetExceededError, match="rank test needs"):
        minimal_codewords_exhaustive(D, budget=estimate - 1)


def test_minimality_stages_grow_fourfold(defining_sets, monkeypatch):
    # at (7,4) two classes are not minimal: no subset proves them so, and they
    # are ranked on 4, 16 and 64 times c = 224 columns, then on all n = 15100
    calls = []

    def spy(X, cols, q):
        calls.append((len(X), len(cols)))
        return _zero_set_ranks(X, cols, q)

    monkeypatch.setattr("leecodes.sss._zero_set_ranks", spy)
    assert minimal_codewords_exhaustive(defining_sets(7, 4)) == (5764200, False)
    assert calls == [(398, 224), (2, 896), (2, 3584), (2, 14336), (2, 15100)]


def test_minimality_full_checks_alone_decide(defining_sets, monkeypatch):
    # a subset that proves nothing sends every class to the full zero-set rank
    # over all n = 220 columns, which alone gives the verdicts
    calls = []

    def subset_proves_nothing(X, cols, q):
        calls.append(len(cols))
        return _zero_set_ranks(X, cols, q) * (len(calls) > 1)

    monkeypatch.setattr("leecodes.sss._zero_set_ranks", subset_proves_nothing)
    assert minimal_codewords_exhaustive(defining_sets(3, 4)) == (6520, False)
    assert calls == [96, 220]


def test_minimality_budget_refuses_before_labelling_orbits(defining_sets, monkeypatch):
    # the price reads only q, m and |Z|: a refused test runs no class pass
    D = defining_sets(3, 3)

    def unreachable(f):
        raise AssertionError("classes built for a refused test")

    monkeypatch.setattr("leecodes.sss._witt_classes", unreachable)
    with pytest.raises(BudgetExceededError, match="class bound"):
        minimal_codewords_exhaustive(D, budget=4 * 3 * 27 + 39 * 40 * 36 - 1)


def test_minimality_refusal_above_dense_table_limit_builds_no_lines(monkeypatch):
    # q^m = 6561 at a budget of 10^6: the price, 4 * 8 * 6561 + 39 * 192 * 256,
    # is refused before a class pass, a column, W or the pair arrays D.a, D.b
    # (36 MB each) are built
    D = defining_set.build_defining_set(make_field(3, 8))

    def unreachable(*args):
        raise AssertionError("classes built for a refused test")

    monkeypatch.setattr("leecodes.sss._witt_classes", unreachable)
    with pytest.raises(BudgetExceededError, match="class bound"):
        minimal_codewords_exhaustive(D, budget=10**6)
    assert "a" not in vars(D) and "b" not in vars(D)
    assert D._cache == {}


def test_a_defining_set_caches_results_only():
    # the count and the rank test keep their results, never W or H
    D = defining_set.build_defining_set(make_field(3, 4))  # fresh instance, empty cache
    codes.cwe_bruteforce(D)
    minimal_codewords_exhaustive(D)
    assert set(D._cache) <= {"cwe", "rank"}


def _class_key(f, mul, alpha, beta):
    """(relation, Q(alpha), Q(beta), B(alpha, beta)) per message, from the
    product table mul and the trace tables: the relation is -1 for alpha = 0,
    0 for beta = 0, c for beta = c alpha and q when the two are independent."""
    q, tsq, tr = f.q, f.trace_sq_array, f.trace_array
    relation = np.where(alpha == 0, -1, np.where(beta == 0, 0, q))
    for c in range(1, q):
        relation = np.where((alpha > 0) & (beta > 0) & (mul[c, alpha] == beta), c, relation)
    return np.stack([relation, tsq[alpha], tsq[beta], tr[mul[alpha, beta]]], axis=1)


@pytest.mark.parametrize("q,m", [(3, 2), (7, 2), (11, 2), (3, 3), (5, 3), (3, 4)])
def test_rank_is_constant_on_each_class(q, m, defining_sets, mul_table):
    # the full zero-set rank of every nonzero message, on the generator columns
    # read off the Gray images of the 2m basis messages x^i and u x^i
    f = make_field(q, m)
    D = defining_sets(q, m)
    basis = [RingElement(f, q**i, 0) for i in range(m)] + [RingElement(f, 0, q**i)
                                                           for i in range(m)]
    G = np.stack([gray_map(defining_set.codeword(x, D)) for x in basis], axis=1)
    alpha, beta = np.divmod(np.arange(1, f.order**2), f.order)
    digits = q ** np.arange(m)
    X = np.hstack([alpha[:, None] // digits % q, beta[:, None] // digits % q])
    ranks = _zero_set_ranks(X, G, q)
    keys, first, label = np.unique(_class_key(f, mul_table(f), alpha, beta), axis=0,
                                   return_index=True, return_inverse=True)
    assert (ranks == ranks[first][label]).all()
    # _witt_classes finds each class once, with one of its messages and its size
    reps_alpha, reps_beta, sizes = _witt_classes(f)
    rep_keys = _class_key(f, mul_table(f), reps_alpha, reps_beta)
    assert len(np.unique(rep_keys, axis=0)) == len(keys) == sizes.size
    for key, size in zip(rep_keys, sizes):
        assert size == (label == np.flatnonzero((keys == key).all(axis=1))[0]).sum()


@pytest.mark.parametrize("q,m", [(3, 3), (5, 2), (7, 2), (17, 2)])  # (17, 2): 306 keys need uint16
def test_witt_classes_match_a_naive_key_loop(q, m, mul_table):
    # one message per key over every nonzero message, and the size of its class
    f = make_field(q, m)
    Q = [f.trace(f.mul(x, x)) for x in f.elements()]
    B = f.trace_array[mul_table(f)].tolist()
    multiples = {alpha: {f.mul(c, alpha): c for c in range(1, q)} for alpha in f.elements()}

    def key(alpha, beta):
        relation = -1 if alpha == 0 else 0 if beta == 0 else multiples[alpha].get(beta, q)
        return relation, Q[alpha], Q[beta], B[alpha][beta]

    sizes = Counter(key(alpha, beta) for alpha in f.elements() for beta in f.elements()
                    if alpha or beta)
    alphas, betas, counts = _witt_classes(f)
    keys = [key(alpha, beta) for alpha, beta in zip(alphas.tolist(), betas.tolist())]
    assert len(set(keys)) == len(keys)
    assert dict(zip(keys, counts.tolist())) == sizes


# -- symmetries of the messages permute the Gray supports --------------------------

def _gray_support(f, D, alpha, beta):
    return gray_map(defining_set.codeword(RingElement(f, alpha, beta), D)) != 0


@pytest.mark.parametrize("q,m", [(3, 3), (7, 2)])
def test_orbit_maps_permute_gray_supports(q, m, defining_sets):
    # each map on messages moves every Gray support by one fixed coordinate
    # permutation, read here from per-message codewords
    f = make_field(q, m)
    D = defining_sets(q, m)
    index = {d: j for j, d in enumerate(zip(D.a.tolist(), D.b.tolist()))}
    halves = np.arange(2 * len(D)) % 2

    def coordinate_map(g):  # Gray coordinate 2j + h -> 2 g(d_j) + h
        return 2 * np.repeat([index[g(a, b)] for a, b in index], 2) + halves

    frob_inv = lambda x: f.pow(x, q ** (m - 1))  # noqa: E731
    maps = [
        (lambda x, y: (y, x), np.arange(2 * len(D)) ^ 1),  # swaps the two halves
        (lambda x, y: (x, f.neg(y)), coordinate_map(lambda a, b: (a, f.neg(b)))),
        (lambda x, y: (f.frobenius(x), f.frobenius(y)),
         coordinate_map(lambda a, b: (frob_inv(a), frob_inv(b)))),
    ]
    rng = random.Random(q * 100 + m)
    for _ in range(40):
        alpha, beta = rng.randrange(f.order), rng.randrange(f.order)
        support = _gray_support(f, D, alpha, beta)
        for g, perm in maps:
            assert np.array_equal(_gray_support(f, D, *g(alpha, beta)), support[perm])
