import itertools
import random

import numpy as np
import pytest

from leecodes import gf
from leecodes.errors import (
    ContextMismatchError,
    DegreeError,
    EvenCharacteristicError,
    NonPrimeError,
    ZeroInverseError,
)
from leecodes.gf import Field, make_field

SMALL_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]


# -- construction -------------------------------------------------------

def test_prime_field_f3():
    f = make_field(3, 1)
    assert f.order == 3
    assert f.generator == 2
    # order of 2 in F_3* by direct powering
    assert f.mul(2, 2) == 1


def test_construction_errors():
    with pytest.raises(EvenCharacteristicError):
        Field(2, 2)
    with pytest.raises(EvenCharacteristicError):
        Field(4, 1)
    with pytest.raises(NonPrimeError):
        Field(9, 1)
    with pytest.raises(DegreeError):
        Field(3, 0)


def _poly_divides(g, f, q):
    # long division of f by monic g, over F_q, low-degree-first coefficients
    f = list(f)
    d = len(g) - 1
    for k in range(len(f) - 1, d - 1, -1):
        c = f[k]
        if c:
            f[k] = 0
            for i in range(d):
                f[k - d + i] = (f[k - d + i] - c * g[i]) % q
    return not any(f[:d])


def _is_irreducible(f, q):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(q), repeat=d):
            if _poly_divides(tail + (1,), f, q):
                return False
    return True


def _smallest_irreducible_by_trial_division(q, m):
    for tail in itertools.product(range(q), repeat=m):
        if _is_irreducible(tail + (1,), q):
            return tail + (1,)


@pytest.mark.parametrize("q,m", SMALL_FIELDS + [(3, 10), (5, 6), (7, 5), (13, 4)])
def test_modulus_search_matches_trial_division(q, m):
    assert gf._smallest_irreducible(q, m) == _smallest_irreducible_by_trial_division(q, m)


@pytest.mark.parametrize("q,deg", [(3, 4), (3, 5), (3, 6), (5, 4), (7, 3)])
def test_rabin_test_matches_trial_division(q, deg):
    # every monic polynomial of the degree, including the root-free reducible
    # ones (products of irreducible factors of degree >= 2) that reach the gcds
    for tail in itertools.product(range(q), repeat=deg):
        f = tail + (1,)
        assert gf._poly_is_irreducible(f, q) == _is_irreducible(f, q), f


def test_modulus_is_lex_smallest_irreducible_cubic():
    f = make_field(3, 3)
    assert len(f.modulus) == 4 and f.modulus[-1] == 1
    assert _is_irreducible(f.modulus, 3)
    # nothing lexicographically smaller is irreducible
    for tail in itertools.product(range(3), repeat=3):
        cand = tail + (1,)
        if cand == f.modulus:
            break
        assert not _is_irreducible(cand, 3), cand


def test_make_field_deterministic():
    a = Field(3, 3)
    b = Field(3, 3)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert make_field(3, 3) is make_field(3, 3)


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_generator_has_full_order(q, m):
    f = make_field(q, m)
    seen = set()
    v = 1
    for _ in range(f.order - 1):
        v = f.mul(v, f.generator)
        seen.add(v)
    assert v == 1
    assert len(seen) == f.order - 1


def test_field_above_former_table_limit():
    # 103^3 = 1 092 727 elements, above the 2^20 at which log/exp tables used to stop;
    # sampled entries are checked against schoolbook polynomial arithmetic
    f = Field(103, 3)
    n = f.order - 1
    assert f._pow_raw(f.generator, n) == 1
    assert all(f._pow_raw(f.generator, n // p) != 1 for p in (2, 3, 17, 3571))  # n = 2 3^2 17 3571
    rng = random.Random(103)
    for _ in range(50):
        x, y = rng.randrange(1, f.order), rng.randrange(1, f.order)
        assert f.mul(x, y) == f._mul_raw(x, y)
        assert f._mul_raw(x, f.inv(x)) == 1
        acc = 0
        for i in range(f.m):  # Tr(x) = x + x^q + x^(q^2)
            acc = f.add(acc, f._pow_raw(x, f.q**i))
        assert f.coeffs(acc) == (int(f.trace_array[x]), 0, 0)


def test_generator_order_by_repeated_squaring():
    f = make_field(3, 3)
    assert f.pow(f.generator, 26) == 1
    assert f.pow(f.generator, 13) != 1
    assert f.pow(f.generator, 2) != 1


# -- arithmetic ---------------------------------------------------------

@pytest.mark.parametrize("q,m", [(3, 3), (5, 2), (7, 2)])
def test_field_axioms_sampled(q, m):
    f = make_field(q, m)
    rng = random.Random(1234)
    for _ in range(200):
        x, y, z = (rng.randrange(f.order) for _ in range(3))
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
        assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.add(x, f.neg(x)) == 0
        assert f.sub(x, y) == f.add(x, f.neg(y))


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (5, 2)])
def test_inverses_exhaustive(q, m):
    f = make_field(q, m)
    assert f.inv(1) == 1
    for x in range(1, f.order):
        assert f.mul(x, f.inv(x)) == 1
    with pytest.raises(ZeroInverseError):
        f.inv(0)


def test_out_of_range_elements_rejected():
    f = make_field(3, 2)
    with pytest.raises(ContextMismatchError):
        f.add(0, 9)
    with pytest.raises(ContextMismatchError):
        f.mul(-1, 1)


# -- trace --------------------------------------------------------------

def test_trace_basics():
    f = make_field(3, 3)
    assert f.trace(0) == 0
    assert f.trace(1) == 3 % 3  # Tr(1) = m mod q
    count = sum(1 for a in range(f.order) if f.trace(f.mul(a, a)) == 0)
    assert count == 9


@pytest.mark.parametrize("q,m", [(3, 3), (5, 2)])
def test_trace_linear_over_prime_field(q, m):
    f = make_field(q, m)
    rng = random.Random(99)
    for _ in range(1000):
        c = rng.randrange(q)
        x, y = rng.randrange(f.order), rng.randrange(f.order)
        lhs = f.trace(f.add(f.mul(c, x), y))
        assert lhs == (c * f.trace(x) + f.trace(y)) % q


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_element_tables_match_scalar_definitions(q, m):
    f = make_field(q, m)
    xs = range(f.order)
    assert f.trace_array.tolist() == [f.trace(x) for x in xs]
    assert f.power_row(2).tolist() == [f._mul_raw(x, x) for x in xs]
    assert f.trace_sq_array.tolist() == [f.trace(f._mul_raw(x, x)) for x in xs]
    euler = (f.order - 1) // 2  # x^((q^m - 1)/2) = 1 exactly on the nonzero squares
    assert f.quad_char_array.tolist() == [0] + [1 if f._pow_raw(x, euler) == 1 else -1 for x in xs[1:]]


@pytest.mark.parametrize("q,m", [(3, 3), (5, 2), (7, 2)])
def test_power_row_q_is_frobenius(q, m):
    f = make_field(q, m)
    assert f.power_row(q).tolist() == [f.frobenius(x) for x in f.elements()]


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_mul_row_matches_dense_table(q, m):
    f = make_field(q, m)
    assert all(np.array_equal(f.mul_row(c), f.mul_array[c]) for c in f.elements())


@pytest.mark.parametrize("q,m", SMALL_FIELDS + [(3, 9), (5, 6), (7, 5), (11, 4), (13, 4)])
def test_gram_matrix_matches_frobenius_trace(q, m):
    # Tm[i, j] = Tr(x^(i+j)) against the sum of the Frobenius conjugates
    f = Field(q, m)  # fresh: no table built yet
    Tm = f.Tm.tolist()
    x = q if m > 1 else 1  # the element x; at m = 1 only x^0 = 1 is read
    assert Tm == [[f.trace(f.pow(x, i + j)) for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("q,m", [(3, 4), (5, 3), (7, 2), (3, 7)])
def test_trace_mul_row_matches_product_route(q, m):
    f = make_field(q, m)
    for c in random.Random(q * m).sample(range(f.order), 20) + [0, 1]:
        assert np.array_equal(f.trace_mul_row(c), f.trace_array[f.mul_row(c)])


def test_trace_tables_build_no_log_tables():
    # the Gram matrix gives Tr(x), Tr(c x) and Tr(x^2); the generator and the
    # log/antilog tables wait for the first multiplication
    f = Field(5, 4)
    f.trace_array, f.trace_sq_array, f.trace_mul_row(7)  # noqa: B018
    assert not {"generator", "_exp", "_log"} & vars(f).keys()
    assert f.mul(7, 7) == f._mul_raw(7, 7)
    assert {"generator", "_exp", "_log"} <= vars(f).keys()


# -- quadratic character -------------------------------------------------

def test_quad_char_values():
    f3 = make_field(3, 1)
    assert f3.quad_char(0) == 0
    assert f3.quad_char(1) == 1
    assert f3.quad_char(2) == -1
    f27 = make_field(3, 3)
    g = f27.generator
    assert f27.quad_char(f27.mul(g, g)) == 1
    assert f27.quad_char(g) == -1


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_quad_char_multiplicative_exhaustive(q, m):
    f = make_field(q, m)
    if f.order > 729:
        pytest.skip("beyond the exhaustive budget")
    qc = f.quad_char_array.astype(np.int64)
    table = qc[f.mul_array]
    outer = np.outer(qc, qc)
    nz = np.nonzero(qc)[0]
    assert np.array_equal(table[np.ix_(nz, nz)], outer[np.ix_(nz, nz)])


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_quad_char_restriction_to_base(q, m):
    # even degree: every base-field unit is a square; odd: restriction matches
    f = make_field(q, m)
    base = make_field(q, 1)
    for y in range(1, q):
        if m % 2 == 0:
            assert f.quad_char(y) == 1
        else:
            assert f.quad_char(y) == base.quad_char(y)


# -- additive characters -------------------------------------------------

def test_trivial_character():
    f = make_field(3, 3)
    assert all(f.add_char_index(0, x) == 0 for x in range(f.order))


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_character_orthogonality_exhaustive(q, m):
    f = make_field(q, m)
    if f.order > 729:
        pytest.skip("beyond the exhaustive budget")
    idx = f.trace_array[f.mul_array]  # idx[a, x] = Tr(a x)
    for a in range(f.order):
        counts = np.bincount(idx[a], minlength=q)
        if a == 0:
            assert counts[0] == f.order and counts[1:].sum() == 0
        else:
            # uniform histogram over the q-th roots of unity sums to zero
            assert np.all(counts == f.order // q)


def test_character_is_additive():
    f = make_field(3, 3)
    rng = random.Random(7)
    for _ in range(300):
        a, x, y = (rng.randrange(f.order) for _ in range(3))
        assert (
            f.add_char_index(a, f.add(x, y))
            == (f.add_char_index(a, x) + f.add_char_index(a, y)) % f.q
        )


def test_canonical_order_is_coefficient_lex():
    f = make_field(3, 2)
    order = f.canonical_elements()
    keys = [f.coeffs(v) for v in order]
    assert keys == sorted(keys)
    assert order[0] == 0
    assert len(order) == f.order
