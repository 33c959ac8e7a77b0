import itertools
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from leecodes import charsums, defining_set, gf
from leecodes.errors import (
    BudgetExceededError,
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
    assert make_field(3, 3) is make_field(3, 3)


def test_make_field_refuses_a_float_in_either_call_order():
    # 3.0 == 3 as a cache key, so the float must be refused whether or not the
    # int call has run; a fresh interpreter has made no field yet
    code = ("from leecodes.errors import DegreeError\n"
            "from leecodes.gf import make_field\n"
            "def refused(q, m):\n"
            "    try:\n"
            "        make_field(q, m)\n"
            "    except DegreeError:\n"
            "        return True\n"
            "    return False\n"
            "print([refused(q, m) for q, m in [(3.0, 2), (3, 2.0), (3, 2), (3.0, 2), (3, 2.0)]])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[True, True, False, True, True]\n"


def test_field_above_former_table_limit():
    # 103^3 = 1 092 727 elements: the field builds nothing of size q^m until a
    # table such as the Q grid is read, so a refusal must come before that;
    # sampled elements are checked against Fermat, inverses and the Frobenius trace
    f = Field(103, 3)
    n = f.order - 1
    rng = random.Random(103)
    for _ in range(50):
        x = rng.randrange(1, f.order)
        assert f._pow_raw(x, n) == 1
        assert f._mul_raw(x, f.inv(x)) == 1
        acc = 0
        for i in range(f.m):  # Tr(x) = x + x^q + x^(q^2)
            acc = f.add(acc, f._pow_raw(x, f.q**i))
        assert f.coeffs(acc) == (int(f.trace_array[x]), 0, 0)


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
    assert f.trace_sq_array.tolist() == [f.trace(f._mul_raw(x, x)) for x in xs]
    squares = {f._mul_raw(x, x) for x in xs}
    assert [f.quad_char(x) for x in xs] == [0] + [1 if x in squares else -1 for x in xs[1:]]


@pytest.mark.parametrize("q,m", itertools.product([3, 5, 131], [1, 2, 3]))
def test_digits_round_trip_and_match_coeffs(q, m):
    # row i of digits holds digit i of every element; the place values q^i
    # (from_digits) turn the rows back into the elements, and each column is
    # the element's coeffs
    f = make_field(q, m)
    x = np.append(np.random.default_rng(q * m).integers(0, f.order, 200), [0, f.order - 1])
    for xs in (x, x[:0]):
        d = f.digits(xs)
        assert d.shape == (m, xs.size)
        assert np.array_equal(f._place @ d, xs)
        assert np.array_equal(f.from_digits(d), xs)
        assert d.T.tolist() == [list(f.coeffs(v)) for v in xs.tolist()]


@pytest.mark.parametrize("outside", [28, -1])
def test_decoders_refuse_a_non_element(outside):
    # at (3,3), 28 = 27 + 1 would decode as the digits of 1 and -1 as those
    # of 26; trace_columns decodes through digits
    f = make_field(3, 3)
    with pytest.raises(ContextMismatchError):
        f.digits([5, outside])
    with pytest.raises(ContextMismatchError):
        f.trace_columns([outside])


@pytest.mark.parametrize("q,m", [(3, 3), (5, 2), (7, 2)])
def test_frobenius_substitutes_x_to_the_q(q, m):
    # over F_q, (sum_i a_i x^i)^q = sum_i a_i (x^q)^i
    f = make_field(q, m)
    xq = f._pow_raw(q, q)  # the element x is the integer q
    powers = [1]
    for _ in range(m - 1):
        powers.append(f._mul_raw(powers[-1], xq))
    for y in f.elements():
        image = 0
        for a, p in zip(f.coeffs(y), powers):
            image = f.add(image, f._mul_raw(a, p))
        assert f.frobenius(y) == image


# (11, 2) is the first point whose digit-product sums m (q - 1)^2 = 200 need int16
@pytest.mark.parametrize("q,m", [(q, m) for q, m in SMALL_FIELDS + [(7, 3), (11, 2)]
                                 if q**m <= 343])
def test_products_match_polynomial_product(q, m):
    f = make_field(q, m)
    for c in f.elements():
        row = [f._mul_raw(c, x) for x in f.elements()]
        assert f.mul_row(c).tolist() == row
        assert f.mul_array[c].tolist() == row


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_mul_row_matches_dense_table(q, m):
    f = make_field(q, m)
    assert all(np.array_equal(f.mul_row(c), f.mul_array[c]) for c in f.elements())


def test_products_at_the_size_limit():
    # at (2039, 1) the digit-product sums (q - 1)^2 need int32; mul_row is an int64 route
    f = Field(2039, 1)
    assert f.order <= gf._DENSE_TABLE_LIMIT and f.mul_array.dtype == np.int32
    for c in [1, 2, 1000, f.order - 2, f.order - 1]:
        assert np.array_equal(f.mul_array[c], f.mul_row(c))


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_sum_tables_match_scalar_definitions(q, m):
    f = make_field(q, m)
    rows = f.elements() if f.order <= 243 else random.Random(q * m).sample(f.elements(), 20)
    for x in rows:
        sums = [f.add(x, y) for y in f.elements()]
        assert f.add_array[x].tolist() == sums
        assert f.trace_add_array[x].tolist() == [f.trace(s) for s in sums]
    assert f.trace_add_array.dtype == f.trace_array.dtype


# Tr(x) + Tr(y) reaches 2(q - 1): 252 at q = 127, whose traces are int8
@pytest.mark.parametrize("q,dtype", [(127, np.int8), (131, np.int16)])
def test_trace_sum_table_at_a_dtype_boundary(q, dtype):
    f = Field(q, 1)
    assert f.trace_add_array.dtype == dtype
    assert f.trace_add_array.tolist() == [[(x + y) % q for y in range(q)] for x in range(q)]


def test_trace_sum_table_refused_above_the_size_limit():
    with pytest.raises(BudgetExceededError):
        Field(3, 7).trace_add_array


@pytest.mark.parametrize("q,m", SMALL_FIELDS + [(3, 9), (5, 6), (7, 5), (11, 4), (13, 4)])
def test_gram_matrix_matches_frobenius_trace(q, m):
    # Tm[i, j] = Tr(x^(i+j)) against the sum of the Frobenius conjugates
    f = Field(q, m)

    def conjugate_sum(y):
        acc = 0
        for _ in range(m):
            acc = f.add(acc, y)
            y = f.frobenius(y)
        assert acc < q, "the trace lies in F_q"
        return acc

    x = q if m > 1 else 1  # the element x; at m = 1 only x^0 = 1 is read
    assert f.Tm.tolist() == [[conjugate_sum(f.pow(x, i + j)) for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("q,m", [(3, 4), (5, 3), (7, 2), (3, 7)])
def test_trace_mul_row_matches_product_route(q, m):
    f = make_field(q, m)
    for c in random.Random(q * m).sample(range(f.order), 20) + [0, 1]:
        assert np.array_equal(f.trace_mul_row(c), f.trace_array[f.mul_row(c)])


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_quadratic_form_of_product_matrix_is_trace(q, m):
    # d(x) . B . d(x) with B = mul_matrix(c) Tm, B[i, j] = Tr(c x^i x^j), is Tr(c x x)
    f = make_field(q, m)
    for c in random.Random(q * m).sample(range(f.order), min(5, f.order)) + [0, 1]:
        Q = f.quadratic_form_array(f.mul_matrix(c) @ f.Tm % q)
        assert Q.tolist() == [f.trace(f.mul(c, f.mul(x, x))) for x in f.elements()]


# The form tables are built in the narrowest signed dtype that holds their
# intermediates: below q^2 for a linear form, below q^3 for a quadratic form.
# Each pair of q sits on either side of a dtype's bound, with the largest
# coefficients, so a dtype one size too small overflows.

@pytest.mark.parametrize("q", [181, 191])  # 181^2 = 32761 fits int16, 191^2 = 36481 does not
def test_linear_form_at_a_dtype_boundary(q):
    f = Field(q, 1)
    for c in (1, 2, q - 2, q - 1):
        assert f.linear_form_array([c]).tolist() == [c * x % q for x in range(q)]


@pytest.mark.parametrize("q", [31, 37])  # 31^3 = 29791 fits int16, 37^3 = 50653 does not
def test_quadratic_form_at_a_dtype_boundary(q):
    f = Field(q, 2)
    for T in ([[q - 1, q - 1], [q - 1, q - 1]], [[q - 1, 1], [1, q - 2]]):
        expected = [sum(T[i][j] * d[i] * d[j] for i in range(2) for j in range(2)) % q
                    for d in map(f.coeffs, f.elements())]
        assert f.quadratic_form_array(T).tolist() == expected


# -- quadratic character -------------------------------------------------

def test_quad_char_values():
    f3 = make_field(3, 1)
    assert f3.quad_char(0) == 0
    assert f3.quad_char(1) == 1
    assert f3.quad_char(2) == -1
    f27 = make_field(3, 3)
    squares = {f27.mul(y, y) for y in f27.elements()}
    g = next(x for x in f27.elements() if x not in squares)
    assert f27.quad_char(f27.mul(g, g)) == 1
    assert f27.quad_char(g) == -1


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_quad_char_multiplicative_exhaustive(q, m, mul_table):
    f = make_field(q, m)
    if f.order > 729:
        pytest.skip("beyond the exhaustive budget")
    qc = np.array([f.quad_char(x) for x in f.elements()])
    table = qc[mul_table(f)]
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


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_gauss_oracle_histogram_is_euler_sum(q, m, monkeypatch):
    # hist[k] = sum of eta(r) over Tr(r) = k, eta read by Euler's criterion
    f = make_field(q, m)
    expected = [0] * q
    for r in f.elements():
        expected[f.trace(r)] += f.quad_char(r)
    seen = []
    monkeypatch.setattr(charsums, "embed_histogram", lambda q, hist: seen.append(hist.tolist()))
    charsums.gauss_sum_oracle(f)
    assert seen == [expected]


def test_cyclic_convolve_matches_a_naive_loop():
    rng = np.random.default_rng(5)
    ha, hb = rng.integers(0, 50, (4, 1, 7)), rng.integers(0, 50, (1, 3, 7))
    naive = np.zeros((4, 3, 7), dtype=np.int64)
    for i, j in itertools.product(range(7), repeat=2):
        naive[..., (i + j) % 7] += ha[..., i] * hb[..., j]
    assert np.array_equal(gf._cyclic_convolve(ha, hb), naive)


def test_cyclic_convolve_holds_no_temporary_beyond_the_output():
    # (61, 1, 61) x (1, 61, 61): a (61, 61, 61, 61) product of every shift would
    # be 110 MB, the output is 1.8 MB
    ha = np.ones((61, 1, 61), dtype=np.int64)
    hb = np.ones((1, 61, 61), dtype=np.int64)
    tracemalloc.start()
    try:
        out = gf._cyclic_convolve(ha, hb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out == 61).all()
    assert peak < 4 * out.nbytes


# -- additive characters chi_a(x) = zeta_q^Tr(a x) -----------------------

def test_trivial_character():
    f = make_field(3, 3)
    assert all(f.trace(f.mul(0, x)) == 0 for x in range(f.order))


@pytest.mark.parametrize("q,m", SMALL_FIELDS)
def test_character_orthogonality_exhaustive(q, m, mul_table):
    f = make_field(q, m)
    if f.order > 729:
        pytest.skip("beyond the exhaustive budget")
    idx = f.trace_array[mul_table(f)]  # idx[a, x] = Tr(a x)
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
            f.trace(f.mul(a, f.add(x, y)))
            == (f.trace(f.mul(a, x)) + f.trace(f.mul(a, y))) % f.q
        )


def test_defining_set_lists_z_in_integer_order():
    # the quadric Z of the defining set, every x with Tr(x^2) = 0, increasing
    for q, m in itertools.product((3, 5, 7), (1, 2, 3, 4)):
        f = make_field(q, m)
        Z = [x for x in f.elements() if f.trace(f.mul(x, x)) == 0]
        assert defining_set.build_defining_set(f).zeros.tolist() == Z
