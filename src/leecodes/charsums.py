"""Quadratic Gauss sums and the counting identities behind the code spectra.

Every closed form here is paired with an exhaustive oracle that enumerates
the defining sum or count directly.  The integer-valued oracles count the a in
F_{q^m} by Tr(a^2), or by one joint count per fixed factor c, J[t, u] =
#{a : Tr(a^2) = t, Tr(c a) = u} (_joint, one scan of every a), and collapse each
sum over F_q* with the Ramanujan vector A[t] = sum over x in F_q* of zeta_q^{x t}, which is q - 1 at
t = 0 and -1 elsewhere (_ramanujan); so they form no root of unity, and their
values are compared with zero tolerance.  Only the two irrational sums, the
Gauss sum and the quadratic polynomial sum, accumulate a length-q histogram and
compare its complex embedding: g and -g are Galois conjugates in Z[zeta_q]
(sigma_a(g) = eta(a) g), so no exact test fixes the sign of G, which is Gauss's
analytic theorem, and a wrong sign moves G_m by 2 q^(m/2), far beyond the
comparison's relative tolerance of 1e-6.

Every closed count and nested sum is read off one character sum,
S(s) = sum over x in F_q*, a in F_{q^m} of zeta_q^{x(Tr(a^2) - s)}, whose only
closed expression is _S (Lidl-Niederreiter, Finite Fields, Sec. 5.2): eta(-s) g
at odd m, (q - 1) g at even m and s = 0, -g otherwise, where g = _gauss_int(field)
is the rational integer G_m at even m and G_m * G_1 at odd m (Thm 5.15).  By the
orthogonality of additive characters q #{a : Tr(a^2) = s} = q^m + S(s); completing
the square gives sum over x in F_q*, a of zeta_q^{x Tr(a^2) + z Tr(c a)} = S(Tr(c^2))
for c, z != 0, from which the nested sums and the zero-trace pair count follow (see
their docstrings).  Each count ends in one exact division _exact(num, den).

Sign conventions: S's three cases are the ones the exhaustive oracles confirm
on all in-budget parameter sets.  GaussValue, quadratic_gauss_sum, _exact and
_cyclic_convolve are defined in gf and imported here, so the count and the
code's closed forms read them without loading this module.
"""

from __future__ import annotations

from ._numpy import np
from ._record import Record
from .errors import DEFAULT_OPS_BUDGET, ZeroLeadingCoefficientError, ZeroParameterError, check_budget
from .gf import (Field, GaussValue, _cyclic_convolve, _exact, _signed_below, quadratic_gauss_sum,
                 root_of_unity)


class CountResult(Record):
    """(value, branch): a count and the closed branch (or route) that gave it."""

    __slots__ = ("value", "branch")


# ----------------------------------------------------------------------
# what the oracles count
# ----------------------------------------------------------------------

def embed_histogram(q: int, hist: np.ndarray) -> complex:
    ks = np.arange(q)
    return complex(np.sum(hist * np.exp(2j * np.pi * ks / q)))


def _ramanujan(q: int) -> np.ndarray:
    """A[t] = sum over x in F_q* of zeta_q^{x t}: q - 1 at t = 0 and -1 elsewhere."""
    A = np.full(q, -1, dtype=np.int64)
    A[0] = q - 1
    return A


def _joint(f: Field, c: int) -> np.ndarray:
    """J[t, u] = #{a : Tr(a^2) = t, Tr(c a) = u}, from one scan of every a.

    The key Tr(a^2) q + Tr(c a) is below q^2, so it is built in the narrowest
    signed dtype that holds it (int16 up to q = 181)."""
    q = f.q
    key = np.multiply(f.trace_sq_array, q, dtype=_signed_below(q * q))
    key += f.trace_mul_row(c)
    return np.bincount(key, minlength=q * q).reshape(q, q)


def _etabar(q: int, s: int) -> int:
    """Quadratic character of F_q at the residue s, by Euler's criterion."""
    e = pow(s % q, (q - 1) // 2, q)
    return -1 if e == q - 1 else e


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


def _gauss_int(field: Field) -> int:
    """The rational integer G_m at even m, G_m * G_1 at odd m."""
    G = gauss_sum_closed(field, "extension")
    if field.m % 2:
        G = G * gauss_sum_closed(field, "base")
    return G.as_int()


def gauss_sum_oracle(field: Field, level: str = "extension", budget: int = DEFAULT_OPS_BUDGET) -> complex:
    """Direct summation of eta(r) * zeta_q^{Tr(r)} over the nonzero elements."""
    f = field.prime_subfield() if level == "base" else field
    check_budget(f.order, budget, "Gauss sum oracle")
    # hist[k] = sum of eta(r) over Tr(r) = k; eta(r) = #{x : x^2 = r} - 1, so the
    # sum is #{x : Tr(x^2) = k} - #{r : Tr(r) = k}
    hist = np.bincount(f.trace_sq_array, minlength=f.q) - np.bincount(f.trace_array, minlength=f.q)
    return embed_histogram(f.q, hist)


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
        # Tr is additive: Tr(b2 x^2 + b1 x + b0) = Tr(b2 x^2) + Tr(b1 x) + Tr(b0),
        # and Tr(b2 x x) = d(x) . B . d(x) with B[i, j] = Tr(b2 x^i x^j)
        B = f.mul_matrix(b2) @ f.Tm % f.q
        traces = f.quadratic_form_array(B).astype(np.int64) + f.trace_mul_row(b1) + f.trace(b0)
        hist = np.bincount(traces % f.q, minlength=f.q)
        return embed_histogram(f.q, hist)
    raise ValueError("mode must be 'closed' or 'oracle'")


# ----------------------------------------------------------------------
# the closed character sum S, and the counts read off it
# ----------------------------------------------------------------------

def _S(f: Field, s: int, g: int) -> int:
    """S(s) from the Gauss integer g = _gauss_int(f): the one closed character sum."""
    if f.m % 2:
        return _etabar(f.q, -s) * g
    return (f.q - 1) * g if s % f.q == 0 else -g


def _branch(m: int, *named: tuple[str, int]) -> str:
    """A closed value's case: which of the named residues are 0, and the parity of m."""
    return ", ".join([f"{name}{'=' if v == 0 else '!='}0" for name, v in named]
                     + ["m odd" if m % 2 else "m even"])


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
    return CountResult(_exact(q**m + _S(f, s, _gauss_int(f)), q), _branch(m, ("s", s)))


def square_trace_char_sum(field: Field, s: int, mode: str = "closed",
                          budget: int = DEFAULT_OPS_BUDGET) -> int:
    """S(s) = sum over x in F_q*, a in F_{q^m} of zeta_q^{x(Tr(a^2) - s)} (an integer)."""
    f = field
    q = f.q
    s %= q
    if mode == "oracle":
        check_budget(f.order + q, budget, "single-sum oracle")
        # the x-sum over the a with Tr(a^2) = t is A[t - s]
        return int(np.bincount(f.trace_sq_array, minlength=q) @ np.roll(_ramanujan(q), s))
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'oracle'")
    return _S(f, s, _gauss_int(f))


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
    g = _gauss_int(f)
    num = (q**m + _S(f, s, g)) * (q**m + _S(f, t, g))
    return CountResult(_exact(num, q * q), _branch(m, ("s", s), ("t", t)))


# ----------------------------------------------------------------------
# triple/quintuple exponential sums
# ----------------------------------------------------------------------

def nested_char_sum(field: Field, kind: str, beta: int, lam: int, alpha: int | None = None,
                    mode: str = "closed", budget: int = DEFAULT_OPS_BUDGET) -> int:
    """The three nested character sums over (a[, b]) and (x[, y], z) ranges.

    kind "single": sum_a sum_{x,z != 0} zeta^{x Tr(a^2) + z Tr(beta a) - z lam}
    kind "split": as "single" with an extra independent sum over b and y of zeta^{y Tr(b^2)}
    kind "coupled": as "split" but the z term couples both: zeta^{z Tr(alpha b + beta a) - z lam}

    Completing the square, the sum over x != 0 and a of zeta^{x Tr(a^2) + z Tr(beta a)}
    is S(Tr(beta^2)) for every z != 0, and the z-sum of zeta^{-z lam} is -1, so
    single = -S(Tr(beta^2)), split = single * S(0) (the b, y factor) and
    coupled = -S(Tr(alpha^2)) * S(Tr(beta^2)).
    """
    f = field
    q = f.q
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

    g = _gauss_int(f)
    single = -_S(f, f.trace(f.mul(beta, beta)), g)
    if kind == "single":
        return single
    if kind == "split":
        return single * _S(f, 0, g)
    return single * _S(f, f.trace(f.mul(alpha, alpha)), g)


def _nested_char_sum_oracle(f: Field, kind: str, beta: int, lam: int, alpha: int | None,
                            budget: int) -> int:
    # grouping a by (t, u) = (Tr(a^2), Tr(beta a)), the x-sum is A[t] and the z-sum
    # A[u - lam]; the coupled sum groups b by (Tr(b^2), Tr(alpha b)) too, and its z
    # term sees u_a + u_b, so the two sides convolve; the split sum's b, y factor
    # reads only #{b : Tr(b^2) = t}, the row sums of J
    q = f.q
    side = f.order + q * q
    check_budget(2 * side + q * q if kind == "coupled" else side, budget, f"{kind}-sum oracle")
    A = _ramanujan(q)
    J = _joint(f, beta)
    h = A @ J
    if kind == "coupled":
        h = _cyclic_convolve(h, A @ _joint(f, alpha))
    value = int(h @ np.roll(A, lam))
    return value * int(A @ J.sum(axis=1)) if kind == "split" else value


# ----------------------------------------------------------------------
# the pair count behind the weight formulas
# ----------------------------------------------------------------------

def zero_trace_pair_count(field: Field, alpha: int, beta: int, lam: int, mode: str = "closed",
                          budget: int = DEFAULT_OPS_BUDGET) -> CountResult:
    """#{(a, b) : Tr(a^2) = 0, Tr(b^2) = 0, Tr(alpha b + beta a) = lam}, lam != 0.

    Over x, y, z in F_q the count is q^-3 sum_z zeta^{-z lam} R_z(alpha) R_z(beta),
    with R_z(c) = sum over x in F_q, a of zeta^{x Tr(a^2) + z Tr(c a)}.  R_0(c) and
    R_z(0) are R(0) = q^m + S(0); for c, z != 0 completing the square gives
    R(c) = S(Tr(c^2)), the same for every z.  So the count is
    (R(0)^2 - R(alpha) R(beta)) / q^3, alpha = 0 and beta = 0 included.
    """
    f = field
    q, m = f.q, f.m
    lam %= q
    if lam == 0:
        raise ZeroParameterError("lam must be a nonzero residue")

    if mode == "oracle":
        check_budget(2 * (f.order + q * q) + q * q, budget, "zero-trace pair-count oracle")
        # row 0 of J counts the a in Z by Tr(c a)
        conv = _cyclic_convolve(_joint(f, beta)[0], _joint(f, alpha)[0])
        return CountResult(int(conv[lam]), "enumeration")
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'oracle'")

    g = _gauss_int(f)
    r0 = q**m + _S(f, 0, g)  # R(0); R(c) = S(Tr(c^2)) for c != 0
    ta, tb = f.trace(f.mul(alpha, alpha)), f.trace(f.mul(beta, beta))
    num = r0 * r0 - (_S(f, ta, g) if alpha else r0) * (_S(f, tb, g) if beta else r0)
    branch = _branch(m, ("Tr(alpha^2)", ta) if alpha else ("alpha", 0),
                     ("Tr(beta^2)", tb) if beta else ("beta", 0))
    return CountResult(_exact(num, q**3), branch)
