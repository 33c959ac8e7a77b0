import random
from fractions import Fraction

import numpy as np
import pytest

from leecodes import codes
from leecodes.errors import (
    BudgetExceededError,
    DegenerateSpectrumError,
    LengthMismatchError,
    UnsupportedParametersError,
)
from leecodes.gf import make_field
from leecodes.ring import RingElement, gray_map
from leecodes.sss import (
    _leading_digit,
    _line_orbits,
    _line_representatives,
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

def test_ab_check_examples():
    r5 = ab_check(codes.lee_spectrum_closed(3, 5), 3)
    assert r5.ab_ratio == Fraction(4, 5) and r5.ab_threshold == Fraction(2, 3)
    assert r5.ab_holds
    r3 = ab_check(codes.lee_spectrum_closed(3, 3), 3)
    assert r3.ab_ratio == Fraction(1, 2) and not r3.ab_holds
    r4 = ab_check(codes.lee_spectrum_closed(3, 4), 3)
    assert r4.ab_ratio == Fraction(2, 3)
    assert not r4.ab_holds  # the inequality is strict


def test_ab_check_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        ab_check(codes.lee_spectrum_closed(5, 2), 5)


def test_minimality_ratios():
    assert minimality_ratios(3, 5).holds
    assert not minimality_ratios(3, 3).holds
    p4 = minimality_ratios(3, 4)
    assert not p4.holds
    assert p4.ratios[0] > p4.threshold  # first even-degree ratio already holds at m=4
    assert p4.ratios[1] == p4.threshold  # the second is exactly at the bound
    p6 = minimality_ratios(3, 6)
    assert p6.holds and all(r > p6.threshold for r in p6.ratios)
    p8 = minimality_ratios(3, 8)
    assert p8.holds
    with pytest.raises(UnsupportedParametersError):
        minimality_ratios(3, 1)


def test_closed_ratios_match_spectrum_ratio():
    # the closed ratio equals w_min/w_max from the closed spectrum
    for (q, m) in [(3, 3), (3, 5), (5, 3), (3, 4), (7, 2)]:
        spec = codes.lee_spectrum_closed(q, m)
        report = ab_check(spec, q)
        ratios = minimality_ratios(q, m).ratios
        assert report.ab_ratio in ratios


# -- exhaustive minimality -------------------------------------------------------

def _naive_minimality(q, m, defining_sets):
    f = make_field(q, m)
    D = defining_sets(q, m)
    sup = np.stack([gray_map(codes.codeword(RingElement(f, alpha, beta), D)) != 0
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
def test_minimality_scan_matches_naive_on_a_subfield_zero_set(q, m):
    # Z = F_q spans one dimension of F_{q^m}: the Gray rank is 2 < 2m, and every
    # message orthogonal to all the columns gives the zero codeword
    D = codes.DefiningSet(make_field(q, m), range(q))
    assert codes.gray_rank(D) == 2
    assert minimal_codewords_exhaustive(D) == _naive_minimality(q, m, lambda *_: D)


def test_minimality_counts(defining_sets):
    count2, all2 = minimal_codewords_exhaustive(defining_sets(3, 2))
    assert (count2, all2) == (72, False)
    count3, all3 = minimal_codewords_exhaustive(defining_sets(3, 3))
    assert (count3, all3) == (700, False)
    # (3,4) sits exactly on the Ashikhmin-Barg threshold, so only the scan decides it;
    # every point runs at the default budget
    for (q, m), count in {(7, 2): 2328, (3, 4): 6520, (5, 3): 15496, (7, 3): 117300,
                          (5, 4): 390416, (11, 3): 1770220}.items():
        assert minimal_codewords_exhaustive(defining_sets(q, m)) == (count, False)


@pytest.mark.parametrize("q,m", [(3, 2), (5, 2)])
def test_line_representatives_cover_each_nonzero_pair_once(q, m):
    f = make_field(q, m)
    hits = np.zeros(f.order**2, dtype=int)
    for k in _line_representatives(q, m).tolist():
        alpha, beta = divmod(k, f.order)
        for c in range(1, q):
            hits[f.mul(c, alpha) * f.order + f.mul(c, beta)] += 1
    assert hits[0] == 0 and (hits[1:] == 1).all()


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


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3)])
def test_ab_soundness_implication(q, m, defining_sets):
    spec = codes.lee_spectrum_bruteforce(defining_sets(q, m))
    report = ab_check(spec, q)
    _, all_minimal = minimal_codewords_exhaustive(defining_sets(q, m))
    assert (not report.ab_holds) or all_minimal


def test_minimality_budget(defining_sets):
    with pytest.raises(BudgetExceededError):
        minimal_codewords_exhaustive(defining_sets(5, 5))


def test_minimality_budget_prices_lines(defining_sets):
    # (R c + F n) (2m)^2: the 36 orbit representatives are ranked on
    # c = min(n, 8mq) = n = 80 / (q - 1) = 40 columns, one per F_q*-orbit, each
    # read at (2m)^2 = 36 steps; with c = n that rank is the full one, so F = 0
    D = defining_sets(3, 3)
    assert _line_orbits(D.field)[0].size == 36
    assert minimal_codewords_exhaustive(D, budget=36 * 40 * 36) == (700, False)
    with pytest.raises(BudgetExceededError, match="rank test needs"):
        minimal_codewords_exhaustive(D, budget=36 * 40 * 36 - 1)


def test_minimality_budget_prices_full_checks(defining_sets):
    # n = 440 / 2 = 220 columns, c = 8mq = 96 of them first: 3 of the 234
    # representatives fail there and take a full rank over all 220
    D = defining_sets(3, 4)
    assert _line_orbits(D.field)[0].size == 234
    estimate = (234 * 96 + 3 * 220) * 8**2
    assert minimal_codewords_exhaustive(D, budget=estimate) == (6520, False)
    with pytest.raises(BudgetExceededError, match="rank test needs"):
        minimal_codewords_exhaustive(D, budget=estimate - 1)


def test_minimality_full_checks_alone_decide(defining_sets, monkeypatch):
    # a subset that proves nothing sends every representative to the full
    # zero-set rank over all n = 220 columns, which alone gives the verdicts
    calls = []

    def subset_proves_nothing(X, cols, q):
        calls.append(len(cols))
        return _zero_set_ranks(X, cols, q) * (len(calls) > 1)

    monkeypatch.setattr("leecodes.sss._zero_set_ranks", subset_proves_nothing)
    assert minimal_codewords_exhaustive(defining_sets(3, 4)) == (6520, False)
    assert calls == [96, 220]


def test_minimality_budget_refuses_before_labelling_orbits(defining_sets, monkeypatch):
    # an orbit holds at most 4m = 12 of the L = 364 lines, so R >= ceil(364 / 12) = 31;
    # 31 c (2m)^2 = 31 * 40 * 36 is refused without labelling a single orbit
    D = defining_sets(3, 3)

    def unreachable(f):
        raise AssertionError("orbits labelled for a refused scan")

    monkeypatch.setattr("leecodes.sss._line_orbits", unreachable)
    with pytest.raises(BudgetExceededError, match="lower bound"):
        minimal_codewords_exhaustive(D, budget=31 * 40 * 36 - 1)


def test_minimality_refusal_above_dense_table_limit_builds_no_lines(monkeypatch):
    # q^m = 6561: L = (3^16 - 1) / 2 lines would take 172 MB as int64, the
    # orbit labelling several arrays that size, the pair arrays D.a, D.b
    # 36 MB each; the lower bound reads only q, m and |Z|, so the scan is
    # refused before any of them
    D = codes.build_defining_set(make_field(3, 8))

    def unreachable(*args):
        raise AssertionError("lines built for a refused scan")

    monkeypatch.setattr("leecodes.sss._line_representatives", unreachable)
    monkeypatch.setattr("leecodes.sss._line_orbits", unreachable)
    with pytest.raises(BudgetExceededError, match="lower bound"):
        minimal_codewords_exhaustive(D)
    assert "a" not in vars(D) and "b" not in vars(D)
    assert D._cache == {}


# -- the symmetries behind the orbit scan ------------------------------------------

def _gray_support(f, D, alpha, beta):
    return gray_map(codes.codeword(RingElement(f, alpha, beta), D)) != 0


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


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (7, 2)])
def test_line_orbits_match_closure(q, m):
    # orbits of all messages under the three maps and F_q* scalars, by union-find
    f = make_field(q, m)
    parent = list(range(f.order**2))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for alpha in range(f.order):
        for beta in range(f.order):
            images = [(beta, alpha), (alpha, f.neg(beta)), (f.frobenius(alpha), f.frobenius(beta))]
            images += [(f.mul(c, alpha), f.mul(c, beta)) for c in range(2, q)]
            for x, y in images:
                parent[find(alpha * f.order + beta)] = find(x * f.order + y)
    orbits = {}
    for k in range(1, f.order**2):
        orbits.setdefault(find(k), []).append(k)
    lead_one = lambda k: int(np.base_repr(k, q)[0]) == 1  # noqa: E731
    expected = sorted((min(filter(lead_one, o)), len(o) // (q - 1)) for o in orbits.values())
    reps, sizes = _line_orbits(f)
    assert list(zip(reps.tolist(), sizes.tolist())) == expected
    assert (q - 1) * sizes.sum() == q ** (2 * m) - 1
