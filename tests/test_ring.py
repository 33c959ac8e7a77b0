import random

import numpy as np
import pytest

from leecodes.errors import ContextMismatchError, ExtensionContextError
from leecodes.gf import make_field
from leecodes.ring import (
    RingElement,
    RingVector,
    from_crt,
    gray_map,
    lee_distance,
    lee_weight,
    ring_trace_frobenius,
)


def R(q=3, m=1):
    return make_field(q, m)


def test_u_squared_is_one():
    f = R()
    u = RingElement(f, 0, 1)
    assert u * u == RingElement(f, 1, 0)
    one_plus_u = RingElement(f, 1, 1)
    one_minus_u = RingElement(f, 1, 2)  # 1 - u over F_3
    assert (one_plus_u * one_minus_u).is_zero()
    assert one_plus_u * one_plus_u == RingElement(f, 2, 2)


def test_mul_table_matches_crt_split():
    # all 81 products over F_3 + uF_3 agree with componentwise CRT products
    f = R()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    x = RingElement(f, a, b)
                    y = RingElement(f, c, d)
                    x1, x2 = x.to_crt()
                    y1, y2 = y.to_crt()
                    assert (x * y) == from_crt(f, f.mul(x1, y1), f.mul(x2, y2))


def test_ring_axioms_sampled_extension():
    f = R(3, 3)
    rng = random.Random(5)
    elems = [RingElement(f, rng.randrange(f.order), rng.randrange(f.order)) for _ in range(60)]
    for x, y, z in zip(elems, elems[1:], elems[2:]):
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x - x).is_zero()


def test_context_mismatch():
    x = RingElement(R(3, 2), 1, 1)
    y = RingElement(R(3, 3), 1, 1)
    with pytest.raises(ContextMismatchError):
        _ = x + y


def test_ideals_and_units():
    f = R()
    u_minus_1 = RingElement(f, 2, 1)  # u - 1
    assert u_minus_1.in_ideal(1) and not u_minus_1.in_ideal(2)
    u_plus_1 = RingElement(f, 1, 1)
    assert u_plus_1.in_ideal(2) and not u_plus_1.in_ideal(1)
    assert not u_plus_1.is_unit()
    assert RingElement(f, 1, 0).is_unit()
    # unit iff in neither maximal ideal
    for a in range(3):
        for b in range(3):
            x = RingElement(f, a, b)
            assert x.is_unit() == (not x.in_ideal(1) and not x.in_ideal(2))


# -- trace ---------------------------------------------------------------

def test_trace_zero_and_base_identity():
    f = R(3, 3)
    assert RingElement(f, 0, 0).trace() == RingElement(make_field(3, 1), 0, 0)
    base = R(3, 1)
    for a in range(3):
        for b in range(3):
            assert RingElement(base, a, b).trace() == RingElement(base, a, b)


@pytest.mark.parametrize("q,m", [(3, 3), (5, 3)])
def test_trace_componentwise_equals_frobenius_sum(q, m):
    f = make_field(q, m)
    rng = random.Random(31)
    for _ in range(100):
        x = RingElement(f, rng.randrange(f.order), rng.randrange(f.order))
        via_components = x.trace()
        via_frobenius = ring_trace_frobenius(x)
        assert via_components == via_frobenius
        assert via_components.a == f.trace(x.a)
        assert via_components.b == f.trace(x.b)


def test_trace_additive():
    f = R(3, 3)
    rng = random.Random(13)
    for _ in range(200):
        x = RingElement(f, rng.randrange(27), rng.randrange(27))
        y = RingElement(f, rng.randrange(27), rng.randrange(27))
        assert (x + y).trace() == x.trace() + y.trace()


# -- Gray map and Lee weight ---------------------------------------------

def test_gray_map_pairs():
    f = R()
    v = RingVector(f, [1], [2])
    assert list(gray_map(v)) == [1, 2]
    z = RingVector(f, [0], [0])
    assert list(gray_map(z)) == [0, 0]


def test_gray_map_injective_on_base_ring():
    f = R()
    images = {tuple(gray_map(RingVector(f, [a], [b]))) for a in range(3) for b in range(3)}
    assert len(images) == 9


def test_gray_map_rejects_extension():
    v = RingVector(R(3, 2), [1], [2])
    with pytest.raises(ExtensionContextError):
        gray_map(v)
    with pytest.raises(ExtensionContextError):
        lee_weight(v)


def _random_vector(f, n, rng):
    return RingVector(
        f,
        [rng.randrange(f.order) for _ in range(n)],
        [rng.randrange(f.order) for _ in range(n)],
    )


def test_gray_map_linear():
    f = R()
    rng = random.Random(17)
    for _ in range(200):
        x = _random_vector(f, 12, rng)
        y = _random_vector(f, 12, rng)
        assert np.array_equal(gray_map(x + y), (gray_map(x) + gray_map(y)) % 3)
        c = rng.randrange(3)
        assert np.array_equal(gray_map(x.scalar_mul(c)), (c * gray_map(x)) % 3)


def test_gray_isometry_random_pairs():
    f = R()
    rng = random.Random(23)
    for _ in range(500):
        x = _random_vector(f, 15, rng)
        y = _random_vector(f, 15, rng)
        assert lee_distance(x, y) == int(np.count_nonzero(gray_map(x) != gray_map(y)))


def test_lee_weight_examples():
    f = R()
    assert lee_weight(RingVector(f, [0, 0, 0], [0, 0, 0])) == 0
    assert lee_weight(RingVector(f, [1], [0])) == 1
    assert lee_weight(RingVector(f, [2], [2])) == 2
    assert lee_weight(RingVector(f, [1, 0], [0, 2])) == 2


def test_lee_distance_past_the_dense_table_limit():
    # q^2 = 2053^2 entries would be a dense addition table; digits need none
    f = R(2053)
    x = RingVector(f, [0, 2052, 1000], [5, 7, 0])
    y = RingVector(f, [1, 2052, 1000], [5, 0, 2052])
    assert lee_distance(x, y) == 3
    assert (x - y).a.tolist() == [2052, 0, 0] and (x - y).b.tolist() == [0, 7, 1]
    assert (x + y).a.tolist() == [1, 2051, 2000] and (x + y).b.tolist() == [10, 7, 2052]


def test_vector_arithmetic_by_digits_matches_ring_elements():
    f = R(3, 7)  # q^m = 2187, past the dense-table limit
    rng = random.Random(29)
    x = _random_vector(f, 50, rng)
    y = _random_vector(f, 50, rng)
    for i in range(50):
        assert (x + y)[i] == x[i] + y[i]
        assert (x - y)[i] == x[i] - y[i]
