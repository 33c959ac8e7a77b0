"""Mutants of the closed CWE table, spectra._closed_cwe_terms.

Each mutant replaces the table with a deliberately wrong one, and the CLI's
own checks must catch it at the points it changes: the closed CWE and Lee
spectrum against the count (cwe, spectrum), and the AB ratio against the rank
test (minimality).  A mutant that changes nothing at a point is asserted to be
equivalent there, so that no row of the table passes for want of a change.
"""

import json

import pytest

from leecodes import cli, spectra
from leecodes.gf import GaussValue

_closed_cwe_terms = spectra._closed_cwe_terms
_quadratic_gauss_sum = spectra.quadratic_gauss_sum


def _swapped(q, m, pair):
    """The multiplicities of the two terms at pair (a slice) swapped, at odd m."""
    terms = _closed_cwe_terms(q, m)
    if m % 2:
        (a, *plus), (b, *minus) = terms[pair]
        terms[pair] = [(b, *plus), (a, *minus)]
    return terms


def swapped_y(q, m):
    """The multiplicities of the +-Y terms swapped, at odd m."""
    return _swapped(q, m, slice(2, 4))


def swapped_z(q, m):
    """The multiplicities of the +-Z terms swapped, at odd m."""
    return _swapped(q, m, slice(4, 6))


def negated_g(q, m):
    """g -> -g in the table, at even m; the odd-m table reads no g."""
    def negated(q, m):
        g = _quadratic_gauss_sum(q, m)
        return GaussValue(q, -g.sign, g.i_power, g.half_exp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "quadratic_gauss_sum", negated)
        return _closed_cwe_terms(q, m)


def exponent_plus_one(q, m):
    """One term's zero-symbol exponent + 1, so its exponents no longer sum to 2n."""
    terms = _closed_cwe_terms(q, m)
    mult, n0, ni = terms[-1]
    terms[-1] = (mult, n0 + 1, ni)
    return terms


ODD = [(3, 3), (5, 3), (7, 3), (3, 5)]
EVEN = [(3, 4), (5, 4)]
# the check of each command that a killed mutant fails
CHECKS = {"cwe": "cwe-closed-vs-brute", "spectrum": "lee-closed-vs-brute",
          "minimality": "ab-soundness"}
# (mutant, points, commands that exit 1, commands that exit 0)
MUTANTS = [
    (swapped_y, ODD, ("cwe", "spectrum"), ("minimality",)),  # the AB ratio is unchanged
    (swapped_z, ODD, ("cwe", "spectrum"), ("minimality",)),  # so are the weights
    (negated_g, EVEN, ("cwe", "spectrum", "minimality"), ()),
    (negated_g, ODD, (), ("cwe", "spectrum", "minimality")),  # equivalent: no g at odd m
    (exponent_plus_one, ODD + EVEN, ("cwe", "spectrum", "minimality"), ()),
]


@pytest.mark.parametrize("mutant,q,m,caught,passed", [
    pytest.param(mutant, q, m, caught, passed, id=f"{mutant.__name__}-{q}-{m}")
    for mutant, points, caught, passed in MUTANTS for q, m in points])
def test_each_mutant_of_the_closed_table_is_caught_or_equivalent(mutant, q, m, caught, passed,
                                                                monkeypatch, capsys):
    equivalent = not caught
    assert (mutant(q, m) == _closed_cwe_terms(q, m)) == equivalent
    monkeypatch.setattr(spectra, "_closed_cwe_terms", mutant)
    for command in caught + passed:
        code = cli.main([command, "--q", str(q), "--m", str(m)])
        verdicts = {v["check"]: v["status"] for v in json.loads(capsys.readouterr().out)["verdicts"]}
        if command in caught:
            assert (code, verdicts[CHECKS[command]]) == (cli.EXIT_FAIL, "FAIL"), command
        else:
            assert (code, set(verdicts.values())) == (cli.EXIT_PASS, {"PASS"}), command


def test_a_failed_comparison_lists_where_closed_and_count_differ(monkeypatch, capsys):
    # at (3, 3) the swapped +-Y multiplicities change exactly the two +-Y compositions
    q, m = 3, 3
    (a, *plus), (b, *minus) = _closed_cwe_terms(q, m)[2:4]
    monkeypatch.setattr(spectra, "_closed_cwe_terms", swapped_y)
    assert cli.main(["cwe", "--q", str(q), "--m", str(m)]) == cli.EXIT_FAIL
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    def composition(n0, ni):
        return [n0] + [ni] * (q - 1)

    diff = sorted([(composition(*plus), b, a), (composition(*minus), a, b)])
    assert verdict == {"check": "cwe-closed-vs-brute", "status": "FAIL", "diff": [
        {"composition": comp, "closed": closed, "brute": brute} for comp, closed, brute in diff]}
