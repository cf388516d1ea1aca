"""Quadrature and root finding contracts."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq  # the reference; pairtrap leaves it out
from scipy.special import digamma

from pairtrap import numerics, solver
from pairtrap.numerics import (NumericsError, QuadratureError, RootBracket,
                               bracket_from_signs, find_root_bracketed,
                               find_roots_bracketed, integrate)
from pairtrap.solver import (InteractionModel, TrapGeometry,
                             bound_state_exact, eigenenergies)
from pairtrap.spectral import pole_grid


def test_exp_sinh_smooth_and_singular():
    value, est = integrate(lambda t: np.exp(-t), 1.0)
    assert abs(value - 1.0) < 1e-15
    assert abs(value - 1.0) <= est < 1e-13
    # t^(-1/2) e^(-t t/c) over scales c spanning 12 decades, in one call
    scales = np.array([1e-6, 1e-2, 1.0, 1e3, 1e6])
    value, est = integrate(
        lambda t: np.exp(-t / scales[:, None]) / np.sqrt(t), scales)
    want = np.sqrt(math.pi * scales)
    assert np.all(abs(value - want) <= est)
    assert np.all(est < 1e-13 * want)


def test_exp_sinh_reports_failure():
    # 1/(1 + t) is not integrable; the nested estimates cannot settle
    with pytest.raises(QuadratureError) as err:
        integrate(lambda t: 1.0 / (1.0 + t), 1.0)
    assert err.value.est_error > 1e-9 * abs(err.value.value)


def test_exp_sinh_fine_pass_is_chosen_per_row(monkeypatch):
    # a Gaussian bump at t = 5 needs the step-1/64 rule; in a batch with it
    # the rows that pass on step 1/32 keep that value and estimate: every
    # row equals its own scalar call bit for bit
    rows = [(lambda t: np.exp(-(t - 5.0) ** 2), 5.0),
            (lambda t: np.exp(-t) / np.sqrt(t), 1.0),
            (lambda t: np.exp(-t / 3.0), 3.0)]
    alone = [integrate(f, c) for f, c in rows]
    verdicts = []
    exceeded = numerics._tolerance_exceeded

    def spy(value, est):
        verdicts.append(np.atleast_1d(exceeded(value, est)).tolist())
        return exceeded(value, est)

    monkeypatch.setattr(numerics, "_tolerance_exceeded", spy)
    value, est = integrate(
        lambda t: np.array([f(t[i]) for i, (f, _) in enumerate(rows)]),
        np.array([c for _, c in rows]))
    assert verdicts == [[True, False, False], [False, False, False]]
    assert [(float(v), float(e)) for v, e in zip(value, est)] == alone


def _brentq_reference(f, br, tol=1e-10):
    # scipy's brentq at find_root_bracketed's xtol and rtol, fed the end
    # values the bracket carries
    def g(x):
        if x == br.lo and br.f_lo is not None:
            return br.f_lo
        if x == br.hi and br.f_hi is not None:
            return br.f_hi
        return f(x)
    xtol = min(tol, 1e-15 + 1e-12 * (abs(br.lo) + abs(br.hi)))
    return brentq(g, br.lo, br.hi, xtol=xtol, rtol=4.0 * 2.0 ** -52)


def _same_as_brentq(f, br, tol=1e-10):
    root = find_root_bracketed(f, br, tol)
    assert type(root) is float
    assert repr(root) == repr(_brentq_reference(f, br, tol))
    return root


def test_root_reuses_bracket_end_values():
    # the ends bracket_from_signs evaluated are not evaluated again, and
    # the root is bit-identical to the one from a bracket without values
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x)

    br = bracket_from_signs(f, 1.0, 2.0)
    assert (br.f_lo, br.f_hi) == (math.cos(1.0), math.cos(2.0))
    root = find_root_bracketed(f, br)
    assert calls.count(1.0) == 1 and calls.count(2.0) == 1
    assert root == find_root_bracketed(math.cos, RootBracket(1.0, 2.0, 1, -1))
    calls.clear()
    br = bracket_from_signs(f, 1.0, 2.0, f_hi=math.cos(2.0))
    assert calls == [1.0]
    assert br == RootBracket(1.0, 2.0, 1, -1)
    # with one end value known only the other end is evaluated
    calls.clear()
    assert find_root_bracketed(
        f, RootBracket(1.0, 2.0, 1, -1, f_hi=math.cos(2.0))) == root
    assert calls[0] == 1.0 and 2.0 not in calls


def test_root_bracketed_cosine():
    br = bracket_from_signs(math.cos, 1.0, 2.0)
    root = _same_as_brentq(math.cos, br)
    assert abs(root - math.pi / 2.0) < 1e-12
    _same_as_brentq(math.cos, RootBracket(1.0, 2.0, 1, -1))


def test_root_bracketed_polynomial():
    br = bracket_from_signs(lambda x: x * x - 2.0, 0.0, 2.0)
    root = _same_as_brentq(lambda x: x * x - 2.0, br)
    assert abs(root - math.sqrt(2.0)) < 1e-12
    _same_as_brentq(lambda x: x * x - 2.0, RootBracket(0.0, 2.0, -1, 1),
                    tol=1e-13)


def test_bracket_requires_sign_change():
    with pytest.raises(NumericsError):
        bracket_from_signs(lambda x: x * x + 1.0, 0.0, 1.0)


def test_root_bracket_validation():
    with pytest.raises(ValueError):
        RootBracket(2.0, 1.0, -1, 1)
    with pytest.raises(ValueError):
        RootBracket(0.0, 1.0, 1, 1)


def test_bracket_from_signs_fields():
    br = bracket_from_signs(lambda x: x - 0.25, 0.0, 1.0)
    assert br.lo <= 0.25 <= br.hi
    assert br.f_lo_sign == -1 and br.f_hi_sign == 1


def test_root_of_digamma_is_a_float():
    # digamma returns numpy floats; the root is a float all the same
    for lo, hi in ((1.0, 2.0), (-0.9, -0.1)):
        _same_as_brentq(digamma, bracket_from_signs(digamma, lo, hi))


@pytest.mark.parametrize("eta, inv_a", [(2.37, -2.5), (0.37, -2.5)])
def test_root_steps_match_brentq_on_eigencondition(monkeypatch, eta, inv_a):
    # every bracket the lockstep engine solves in a level search, pole-
    # cleared targets with residue end values included, against brentq on
    # the same target (that bracket's view of the batched one) and bracket
    calls = []

    def recording(f_many, brackets, tol):
        calls.extend((f_many, i, br, tol) for i, br in enumerate(brackets))
        return find_roots_bracketed(f_many, brackets, tol)

    def recording_one(f, br, tol):
        calls.append((lambda xs, which: [f(xs[0])], 0, br, tol))
        return find_root_bracketed(f, br, tol)

    monkeypatch.setattr(solver, "find_roots_bracketed", recording)
    monkeypatch.setattr(solver, "find_root_bracketed", recording_one)
    model, g = InteractionModel.from_inverse_a(inv_a), TrapGeometry(eta)
    eigenenergies(model, g, max_levels=6)
    bound_state_exact(model, g)
    assert len(calls) >= 7
    # cleared: an end value is one of F's residues (or minus one), a limit
    # the engine was handed instead of an evaluation
    residues = set(pole_grid(eta, -20.0).residues)
    assert any(br.f_lo in residues or -br.f_hi in residues
               for _, _, br, _ in calls)
    for f_many, i, br, tol in calls:
        _same_as_brentq(lambda x: f_many([x], [i])[0], br, tol)


def test_lockstep_roots_match_separate_runs():
    # n roots in lockstep equal n separate find_root_bracketed runs bit for
    # bit; each round is one f_many call over the roots still running, so
    # there are as many calls as the longest single run takes
    targets = [math.cos, lambda x: x * x - 2.0, digamma,
               lambda x: -1.0 if x < 1.0 / 3.0 else 1.0,
               lambda x: x - 1.0, lambda x: math.exp(x) - 5.0]
    brackets = [RootBracket(1.0, 2.0, 1, -1),
                bracket_from_signs(targets[1], 0.0, 2.0),
                bracket_from_signs(digamma, -0.9, -0.1),
                RootBracket(0.0, 1.0, -1, 1),
                RootBracket(1.0, 2.0, -1, 1),
                RootBracket(0.0, 3.0, -1, 1, f_hi=math.exp(3.0) - 5.0)]
    separate, counts = [], []
    for f, br in zip(targets, brackets):
        calls = []
        separate.append(find_root_bracketed(
            lambda x, f=f: calls.append(x) or f(x), br, tol=1e-12))
        counts.append(len(calls))
    rounds = []

    def f_many(xs, which):
        rounds.append(list(which))
        return [targets[i](x) for x, i in zip(xs, which)]

    together = find_roots_bracketed(f_many, brackets, tol=1e-12)
    assert [repr(r) for r in together] == [repr(r) for r in separate]
    assert all(type(r) is float for r in together)
    assert len(rounds) == max(counts)
    assert sum(map(len, rounds)) == sum(counts)
    assert find_roots_bracketed(f_many, [], tol=1e-12) == []
    # a None bracket has no root and takes no evaluation
    rounds.clear()
    assert find_roots_bracketed(f_many, [None, brackets[1], None],
                                tol=1e-12) == [None, separate[1], None]
    assert all(which == [1] for which in rounds)


def test_root_end_value_zero_is_returned():
    assert _same_as_brentq(lambda x: x - 1.0, RootBracket(1.0, 2.0, -1, 1)) \
        == 1.0
    assert _same_as_brentq(lambda x: x - 2.0, RootBracket(1.0, 2.0, -1, 1)) \
        == 2.0


def test_root_of_step_function_bisects():
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 1.0 / 3.0 else 1.0

    br = RootBracket(0.0, 1.0, -1, 1)
    root = find_root_bracketed(step, br)
    assert abs(root - 1.0 / 3.0) <= 1e-10
    assert len(calls) <= 300
    assert repr(root) == repr(_brentq_reference(step, br))


def test_root_bisects_only_past_the_brent_step_cap(monkeypatch):
    # with no Brent steps allowed the loop still converges, by bisection
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x)

    monkeypatch.setattr(numerics, "_BRENT_STEPS", 0)
    root = find_root_bracketed(f, RootBracket(1.0, 2.0, 1, -1), tol=1e-10)
    assert abs(root - math.pi / 2.0) <= 1e-10
    assert 30 < len(calls) <= 300


def test_root_rejects_same_signs_and_nan():
    with pytest.raises(ValueError):
        find_root_bracketed(lambda x: x * x + 1.0,
                            RootBracket(0.0, 1.0, -1, 1))
    with pytest.raises(ValueError):
        find_root_bracketed(lambda x: x - 0.25 if x < 0.5 else math.nan,
                            RootBracket(0.0, 1.0, -1, 1))
    with pytest.raises(ValueError):  # NaN at the first step, x = 0.5
        find_root_bracketed(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                            RootBracket(0.0, 1.0, -1, 1))
