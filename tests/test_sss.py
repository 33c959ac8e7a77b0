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
    _line_orbits,
    _line_representatives,
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
    sup = []
    for alpha in range(f.order):
        for beta in range(f.order):
            g = gray_map(codes.codeword(RingElement(f, alpha, beta), D))
            if g.any():
                sup.append(g != 0)
    sup = np.stack(sup)
    minimal = 0
    for sj in sup:
        inside = ~(sup & ~sj).any(1)  # support(i) within support(j), for every i
        bigger = (sj & ~sup).any(1)  # support(j) not within support(i)
        minimal += not (inside & bigger).any()
    return minimal, minimal == sup.shape[0]


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (7, 2)])
def test_minimality_scan_matches_naive(q, m, defining_sets):
    fast = minimal_codewords_exhaustive(defining_sets(q, m))
    assert fast == _naive_minimality(q, m, defining_sets)


def test_minimality_counts(defining_sets):
    count2, all2 = minimal_codewords_exhaustive(defining_sets(3, 2))
    assert (count2, all2) == (72, False)
    count3, all3 = minimal_codewords_exhaustive(defining_sets(3, 3))
    assert (count3, all3) == (700, False)
    # (3,4) sits exactly on the Ashikhmin-Barg threshold, so only the scan decides it
    for (q, m), count in {(7, 2): 2328, (3, 4): 6520, (5, 3): 15496, (7, 3): 117300}.items():
        assert minimal_codewords_exhaustive(defining_sets(q, m), budget=10**12) == (count, False)


@pytest.mark.parametrize("q,m", [(3, 2), (5, 2)])
def test_line_representatives_cover_each_nonzero_pair_once(q, m):
    f = make_field(q, m)
    hits = np.zeros(f.order**2, dtype=int)
    for k in _line_representatives(q, m).tolist():
        alpha, beta = divmod(k, f.order)
        for c in range(1, q):
            hits[f.mul(c, alpha) * f.order + f.mul(c, beta)] += 1
    assert hits[0] == 0 and (hits[1:] == 1).all()


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3)])
def test_ab_soundness_implication(q, m, defining_sets):
    spec = codes.lee_spectrum_bruteforce(defining_sets(q, m))
    report = ab_check(spec, q)
    _, all_minimal = minimal_codewords_exhaustive(defining_sets(q, m))
    assert (not report.ab_holds) or all_minimal


def test_minimality_budget(defining_sets):
    with pytest.raises(BudgetExceededError):
        minimal_codewords_exhaustive(defining_sets(3, 5))


def test_minimality_budget_prices_lines(defining_sets):
    # L * R * n with L = (3^6 - 1)/2 = 364 lines, R = 36 orbits and n = 80
    # first-half Gray coordinates
    D = defining_sets(3, 3)
    assert _line_orbits(D.field)[0].size == 36
    assert minimal_codewords_exhaustive(D, budget=364 * 36 * 80) == (700, False)
    with pytest.raises(BudgetExceededError):
        minimal_codewords_exhaustive(D, budget=364 * 36 * 80 - 1)


def test_minimality_budget_refuses_before_labelling_orbits(defining_sets, monkeypatch):
    # an orbit holds at most 4m = 12 lines, so R >= ceil(364 / 12) = 31; a budget
    # below L * 31 * n is refused without labelling a single orbit
    D = defining_sets(3, 3)

    def unreachable(f):
        raise AssertionError("orbits labelled for a refused scan")

    monkeypatch.setattr("leecodes.sss._line_orbits", unreachable)
    with pytest.raises(BudgetExceededError, match="lower bound"):
        minimal_codewords_exhaustive(D, budget=364 * 31 * 80 - 1)


def test_minimality_refusal_above_dense_table_limit_builds_no_lines(defining_sets, monkeypatch):
    # q^m = 6561: L = (3^16 - 1) / 2 lines would take 172 MB as int64, and the
    # orbit labelling is refused by the dense-table limit anyway; the scan is
    # priced from L as a number and refused before either runs
    D = defining_sets(3, 8)

    def unreachable(*args):
        raise AssertionError("lines built for a refused scan")

    monkeypatch.setattr("leecodes.sss._line_representatives", unreachable)
    monkeypatch.setattr("leecodes.sss._line_orbits", unreachable)
    with pytest.raises(BudgetExceededError, match="lower bound"):
        minimal_codewords_exhaustive(D)


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
