"""Quadratic Gauss sums and the counting identities behind the code spectra.

Every closed form here is paired with an exhaustive oracle that enumerates
the defining sum or count directly.  Oracles accumulate root-of-unity terms
into a length-q integer histogram and collapse it exactly at the end: a
histogram h represents sum_k h[k] * zeta_q^k, which is a rational integer
iff h[1] = ... = h[q-1], in which case the value is h[0] - h[1].  Only the
genuinely irrational Gauss sums are compared through a complex embedding.

Sign conventions: every branch below is the one its exhaustive oracle
confirms on all in-budget parameter sets.  GaussValue, quadratic_gauss_sum
and _cyclic_convolve are defined in gf and imported here, so the count reads
them without loading this module.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from ._record import Record
from .errors import (
    NonIntegralValueError,
    ZeroLeadingCoefficientError,
    ZeroParameterError,
)
from .gf import Field, GaussValue, _cyclic_convolve, quadratic_gauss_sum, root_of_unity


class CountResult(Record):
    """(value, branch): a count and the closed branch (or route) that gave it."""

    __slots__ = ("value", "branch")


# ----------------------------------------------------------------------
# histogram helpers
# ----------------------------------------------------------------------

def embed_histogram(q: int, hist: np.ndarray) -> complex:
    ks = np.arange(q)
    return complex(np.sum(hist * np.exp(2j * np.pi * ks / q)))


def exact_int_from_histogram(q: int, hist) -> int:
    hist = [int(v) for v in hist]
    tail = hist[1:]
    if any(v != tail[0] for v in tail):
        raise NonIntegralValueError("root-of-unity sum is not a rational integer")
    return hist[0] - tail[0]


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise NonIntegralValueError(f"closed form is not integral: {x}")
    return int(x)


def _etabar(field: Field, s: int) -> int:
    """Quadratic character of the prime subfield at the residue s."""
    return field.prime_subfield().quad_char(s % field.q)


# ----------------------------------------------------------------------
# Gauss sums
# ----------------------------------------------------------------------

def gauss_sum_closed(field: Field, level: str = "extension") -> GaussValue:
    """Symbolic quadratic Gauss sum over F_{q^m} (extension) or F_q (base)."""
    if level == "base":
        return quadratic_gauss_sum(field.q, 1)
    if level == "extension":
        return quadratic_gauss_sum(field.q, field.m)
    raise ValueError("level must be 'extension' or 'base'")


def gauss_sum_oracle(field: Field, level: str = "extension", budget: int = DEFAULT_OPS_BUDGET) -> complex:
    """Direct summation of eta(r) * zeta_q^{Tr(r)} over the nonzero elements."""
    f = field.prime_subfield() if level == "base" else field
    check_budget(f.order, budget, "Gauss sum oracle")
    # hist[k] = sum of eta(r) over Tr(r) = k, exact in float64 below 2^53
    hist = np.bincount(f.trace_array, weights=f.quad_char_array, minlength=f.q)
    return embed_histogram(f.q, hist.astype(np.int64))


def gauss_sum(field: Field, level: str = "extension", mode: str = "closed",
              budget: int = DEFAULT_OPS_BUDGET):
    """Dispatcher: closed mode returns a GaussValue, oracle mode its complex value."""
    if mode == "closed":
        return gauss_sum_closed(field, level)
    if mode == "oracle":
        return gauss_sum_oracle(field, level, budget)
    raise ValueError("mode must be 'closed' or 'oracle'")


def quadratic_sum(field: Field, b2: int, b1: int, b0: int, mode: str = "closed",
                  budget: int = DEFAULT_OPS_BUDGET) -> complex:
    """sum over x of chi_1(b2 x^2 + b1 x + b0), with b2 != 0."""
    f = field
    if b2 == 0:
        raise ZeroLeadingCoefficientError("b2 must be nonzero")
    if mode == "closed":
        four = 4 % f.q
        shift = f.sub(b0, f.mul(f.mul(b1, b1), f.inv(f.mul(four, b2))))
        return (
            root_of_unity(f.q, f.trace(shift))
            * f.quad_char(b2)
            * gauss_sum_closed(f, "extension").embedding
        )
    if mode == "oracle":
        check_budget(f.order, budget, "quadratic sum oracle")
        # Tr is additive: Tr(b2 x^2 + b1 x + b0) = Tr(b2 x^2) + Tr(b1 x) + Tr(b0)
        traces = (f.trace_mul_row(b2)[f.power_row(2)].astype(np.int64)
                  + f.trace_mul_row(b1) + f.trace(b0))
        hist = np.bincount(traces % f.q, minlength=f.q)
        return embed_histogram(f.q, hist)
    raise ValueError("mode must be 'closed' or 'oracle'")


# ----------------------------------------------------------------------
# single-variable counts
# ----------------------------------------------------------------------

def square_trace_count(field: Field, s: int, mode: str = "closed",
                       budget: int = DEFAULT_OPS_BUDGET) -> CountResult:
    """#{x in F_{q^m} : Tr(x^2) = s}."""
    f = field
    q, m = f.q, f.m
    s %= q
    if mode == "oracle":
        check_budget(f.order, budget, "square_trace_count oracle")
        return CountResult(int(np.count_nonzero(f.trace_sq_array == s)), "enumeration")
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'oracle'")
    G = gauss_sum_closed(f, "extension")
    even = m % 2 == 0
    base = Fraction(q ** (m - 1))
    if s == 0 and even:
        val = base + Fraction((q - 1) * G.as_int(), q)
        branch = "s=0, m even"
    elif s == 0:
        val = base
        branch = "s=0, m odd"
    elif even:
        val = base - Fraction(G.as_int(), q)
        branch = "s!=0, m even"
    else:
        GGb = (G * gauss_sum_closed(f, "base")).as_int()
        val = base + Fraction(_etabar(f, -s) * GGb, q)
        branch = "s!=0, m odd"
    return CountResult(_as_int(val), branch)


def square_trace_char_sum(field: Field, s: int, mode: str = "closed",
                          budget: int = DEFAULT_OPS_BUDGET) -> int:
    """sum over x in F_q*, a in F_{q^m} of zeta_q^{x(Tr(a^2) - s)} (an integer)."""
    f = field
    q, m = f.q, f.m
    s %= q
    if mode == "oracle":
        check_budget(f.order * (q - 1), budget, "single-sum oracle")
        counts = np.bincount(f.trace_sq_array, minlength=q)
        hist = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            for t in range(q):
                hist[(x * (t - s)) % q] += int(counts[t])
        return exact_int_from_histogram(q, hist)
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'oracle'")
    G = gauss_sum_closed(f, "extension")
    even = m % 2 == 0
    if s == 0 and even:
        return (q - 1) * G.as_int()
    if s == 0:
        return 0
    if even:
        return -G.as_int()
    GGb = (G * gauss_sum_closed(f, "base")).as_int()
    return _etabar(f, -s) * GGb


def square_trace_pair_count(field: Field, s: int, t: int, mode: str = "closed",
                            budget: int = DEFAULT_OPS_BUDGET) -> CountResult:
    """#{(x, y) : Tr(x^2) = s and Tr(y^2) = t}."""
    f = field
    q, m = f.q, f.m
    s %= q
    t %= q
    if mode == "oracle":
        check_budget(2 * f.order, budget, "square_trace_pair_count oracle")
        # the constraints are independent, so the pair count is a product of scans
        cs = int(np.count_nonzero(f.trace_sq_array == s))
        ct = int(np.count_nonzero(f.trace_sq_array == t))
        return CountResult(cs * ct, "enumeration")
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'oracle'")
    G = gauss_sum_closed(f, "extension")
    even = m % 2 == 0
    if even:
        g = G.as_int()
        if s == 0 and t == 0:
            val = Fraction(q ** (m - 1) + Fraction((q - 1) * g, q)) ** 2
            branch = "s=0, t=0, m even"
        elif s != 0 and t != 0:
            val = Fraction(q ** (m - 1) - Fraction(g, q)) ** 2
            branch = "s!=0, t!=0, m even"
        else:
            val = (
                Fraction(q) ** (2 * m - 2)
                + Fraction(q) ** (m - 2) * (q - 2) * g
                - Fraction((q - 1) * g * g, q * q)
            )
            branch = "one of s,t zero, m even"
    else:
        GGb = (G * gauss_sum_closed(f, "base")).as_int()
        val = Fraction(q) ** (2 * m - 2)
        if s == 0 and t == 0:
            branch = "s=0, t=0, m odd"
        elif t == 0:
            val += Fraction(q) ** (m - 2) * _etabar(f, -s) * GGb
            branch = "s!=0, t=0, m odd"
        elif s == 0:
            val += Fraction(q) ** (m - 2) * _etabar(f, -t) * GGb
            branch = "s=0, t!=0, m odd"
        else:
            val += Fraction(q) ** (m - 2) * (_etabar(f, -s) + _etabar(f, -t)) * GGb
            val += Fraction(_etabar(f, (s * t) % q) * GGb * GGb, q * q)
            branch = "s!=0, t!=0, m odd"
    return CountResult(_as_int(val), branch)


# ----------------------------------------------------------------------
# triple/quintuple exponential sums
# ----------------------------------------------------------------------

def nested_char_sum(field: Field, kind: str, beta: int, lam: int, alpha: int | None = None,
                    mode: str = "closed", budget: int = DEFAULT_OPS_BUDGET) -> int:
    """The three nested character sums over (a[, b]) and (x[, y], z) ranges.

    kind "single": sum_a sum_{x,z != 0} zeta^{x Tr(a^2) + z Tr(beta a) - z lam}
    kind "split": as "single" with an extra independent sum over b and y of zeta^{y Tr(b^2)}
    kind "coupled": as "split" but the z term couples both: zeta^{z Tr(alpha b + beta a) - z lam}
    """
    f = field
    q, m = f.q, f.m
    lam %= q
    if lam == 0:
        raise ZeroParameterError("lam must be a nonzero residue")
    if beta == 0:
        raise ZeroParameterError("beta must be nonzero")
    if kind == "coupled" and (alpha is None or alpha == 0):
        raise ZeroParameterError("the coupled sum needs a nonzero alpha")
    if kind not in ("single", "split", "coupled"):
        raise ValueError("kind must be one of 'single', 'split', 'coupled'")

    if mode == "oracle":
        return _nested_char_sum_oracle(f, kind, beta, lam, alpha, budget)
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'oracle'")

    even = m % 2 == 0
    G = gauss_sum_closed(f, "extension")
    tb = f.trace(f.mul(beta, beta))
    if kind == "single":
        if even:
            return -G.as_int() * (q - 1) if tb == 0 else G.as_int()
        if tb == 0:
            return 0
        GGb = (G * gauss_sum_closed(f, "base")).as_int()
        return -_etabar(f, -tb) * GGb
    if kind == "split":
        if not even:
            return 0
        g2 = (G * G).as_int()
        return -g2 * (q - 1) ** 2 if tb == 0 else g2 * (q - 1)
    # coupled
    ta = f.trace(f.mul(alpha, alpha))
    if even:
        g2 = (G * G).as_int()
        if ta == 0 and tb == 0:
            return -g2 * (q - 1) ** 2
        if ta == 0 or tb == 0:
            return g2 * (q - 1)
        return -g2
    if ta == 0 or tb == 0:
        return 0
    Gb = gauss_sum_closed(f, "base")
    g2gb2 = (G * G * Gb * Gb).as_int()
    return -_etabar(f, (ta * tb) % q) * g2gb2


def _nested_char_sum_oracle(f: Field, kind: str, beta: int, lam: int, alpha: int | None,
                            budget: int) -> int:
    # the convolution is bilinear, so summing each factor over x (resp. y) before
    # convolving gives the sum over all (x, y, z); "split" is "coupled" with the
    # Tr(alpha b) term zero, and "single" is the a-part alone
    q = f.q
    ta2 = f.trace_sq_array
    tr_beta = f.trace_mul_row(beta)  # Tr(beta * a) over a
    sides = 1 if kind == "single" else 2
    check_budget(sides * (f.order + (q - 1) ** 2 * q * q) + (sides - 1) * (q - 1) * q * q,
                 budget, f"{kind}-sum oracle")
    units = np.arange(1, q)
    t, u = np.divmod(np.arange(q * q), q)
    # k[x - 1, z - 1, t q + u] = x t + z u mod q
    k = (units[:, None, None] * t + units[:, None] * u) % q

    def summed(lin: np.ndarray) -> np.ndarray:
        """out[z - 1, k] = #{(x, a) : x Tr(a^2) + z lin(a) = k}, x and z in F_q*,
        from one joint count J[t, u] = #{a : Tr(a^2) = t, lin(a) = u}."""
        J = np.bincount(np.multiply(ta2, q, dtype=np.intp) + lin % q, minlength=q * q)
        out = np.zeros((q - 1, q), dtype=np.int64)
        np.add.at(out, (units[:, None] - 1, k), J)
        return out

    ha = summed(tr_beta - lam)
    if kind == "single":
        return exact_int_from_histogram(q, ha.sum(axis=0))
    tr_alpha = f.trace_mul_row(alpha) if kind == "coupled" else np.zeros_like(ta2)  # Tr(alpha * b)
    return exact_int_from_histogram(q, _cyclic_convolve(ha, summed(tr_alpha)).sum(axis=0))


# ----------------------------------------------------------------------
# the pair count behind the weight formulas
# ----------------------------------------------------------------------

def zero_trace_pair_count(field: Field, alpha: int, beta: int, lam: int, mode: str = "closed",
                          budget: int = DEFAULT_OPS_BUDGET) -> CountResult:
    """#{(a, b) : Tr(a^2) = 0, Tr(b^2) = 0, Tr(alpha b + beta a) = lam}, lam != 0."""
    f = field
    q, m = f.q, f.m
    lam %= q
    if lam == 0:
        raise ZeroParameterError("lam must be a nonzero residue")

    if mode == "oracle":
        check_budget(2 * f.order + q * q, budget, "zero-trace pair-count oracle")
        zeros = np.nonzero(f.trace_sq_array == 0)[0]
        ha = np.bincount(f.trace_mul_row(beta)[zeros], minlength=q).astype(np.int64)
        hb = np.bincount(f.trace_mul_row(alpha)[zeros], minlength=q).astype(np.int64)
        conv = _cyclic_convolve(ha, hb)
        return CountResult(int(conv[lam]), "enumeration")
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'oracle'")

    if alpha == 0 and beta == 0:
        return CountResult(0, "alpha=0, beta=0")
    if alpha != 0 and beta == 0:
        # symmetric in the two slots: swapping (a, b) swaps the roles of alpha, beta
        inner = zero_trace_pair_count(f, 0, alpha, lam, mode="closed")
        return CountResult(inner.value, "beta=0 (symmetric): " + inner.branch)

    even = m % 2 == 0
    G = gauss_sum_closed(f, "extension")
    base = Fraction(q) ** (2 * m - 3)
    qm3 = Fraction(q**m, q**3)
    tb = f.trace(f.mul(beta, beta))

    if alpha == 0:
        if even:
            g = G.as_int()
            if tb == 0:
                val = base + g * (q - 1) * qm3
                branch = "alpha=0, m even, Tr(beta^2)=0"
            else:
                val = base + g * (2 * q - 1) * qm3 + Fraction(g * g * (q - 1), q * q)
                branch = "alpha=0, m even, Tr(beta^2)!=0"
        elif tb == 0:
            val = base
            branch = "alpha=0, m odd, Tr(beta^2)=0"
        else:
            # equals q^{2m-3} + q^{m-3} * (the single nested sum); enumeration fixes the sign
            GGb = (G * gauss_sum_closed(f, "base")).as_int()
            val = base - _etabar(f, -tb) * GGb * qm3
            branch = "alpha=0, m odd, Tr(beta^2)!=0"
        return CountResult(_as_int(val), branch)

    ta = f.trace(f.mul(alpha, alpha))
    if even:
        g = G.as_int()
        val = base + 2 * g * (q - 1) * qm3
        if ta == 0 and tb == 0:
            branch = "m even, Tr(alpha^2)=0, Tr(beta^2)=0"
        elif ta != 0 and tb != 0:
            val += Fraction(g * g * (q - 2), q * q)
            branch = "m even, Tr(alpha^2)!=0, Tr(beta^2)!=0"
        else:
            val += Fraction(g * g * (q - 1), q * q)
            branch = "m even, one of the traces zero"
    else:
        if ta == 0 or tb == 0:
            val = base
            branch = "m odd, a trace vanishes"
        else:
            Gb = gauss_sum_closed(f, "base")
            g2gb2 = (G * G * Gb * Gb).as_int()
            val = base - Fraction(_etabar(f, (ta * tb) % q) * g2gb2, q**3)
            branch = "m odd, Tr(alpha^2)!=0, Tr(beta^2)!=0"
    return CountResult(_as_int(val), branch)
