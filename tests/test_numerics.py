"""Quadrature and root finding contracts."""

import ast
import inspect
import math

import numpy as np
import pytest
from scipy.optimize import brentq  # the reference; pairtrap leaves it out
from scipy.special import digamma

from pairtrap import (cli, numerics, quadrature, solver, specfun, spectral,
                      wavefn)
from pairtrap.numerics import (NumericsError, QuadratureError, RootBracket,
                               bracket_from_signs, find_root_bracketed,
                               find_roots_bracketed)
from pairtrap.quadrature import integrate, integrate_separable
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
    exceeded = quadrature._tolerance_exceeded

    def spy(value, est):
        verdicts.append(np.atleast_1d(exceeded(value, est)).tolist())
        return exceeded(value, est)

    monkeypatch.setattr(quadrature, "_tolerance_exceeded", spy)
    value, est = integrate(
        lambda t: np.array([f(t[i]) for i, (f, _) in enumerate(rows)]),
        np.array([c for _, c in rows]))
    assert verdicts == [[True, False, False], [False, False, False]]
    assert [(float(v), float(e)) for v, e in zip(value, est)] == alone


def _closed_form_grid():
    # t^(-1/2) e^(-a t - (b_i + c_j)/t) over (0, inf) is
    # sqrt(pi/a) e^(-2 sqrt(a (b_i + c_j))); the peak sits near
    # t = sqrt((b + c)/a): 11 power-of-two buckets from 2^-13 to 2^2
    a = 1.5
    b = np.array([0.0, 1e-8, 1e-5, 3e-3, 0.1, 2.0, 30.0])
    c = np.array([2e-8, 1e-6, 1e-4, 0.02, 0.7, 9.0])
    bc = b[:, None] + c
    scale = np.sqrt(bc / a)
    want = math.sqrt(math.pi / a) * np.exp(-2.0 * np.sqrt(a * bc))
    return (lambda p, t: np.exp(-a * t - p / t) / np.sqrt(t),
            lambda q, t: np.exp(-q / t), b, c, scale, want)


def test_node_layout_stays_in_numerics():
    # the exp-sinh node layout (table, even and odd halves, weights) and
    # the rule on it are the quadrature module's alone: every other module,
    # numerics included, integrates through integrate or
    # integrate_separable and binds none of them
    layout = {"NODE_TABLE", "_ES_T_EVEN", "_ES_T_ODD", "_ES_W_EVEN",
              "_ES_W_ODD", "_rule", "_settle"}
    assert layout <= set(vars(quadrature))
    for module in (cli, numerics, solver, spectral, specfun, wavefn):
        assert not layout & set(vars(module)), module.__name__


def test_specfun_imports_neither_numpy_nor_numerics():
    # the level path's special functions stay plain-float: specfun.py
    # imports neither numpy nor the quadrature module
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(specfun))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported
                if name.split(".")[0] == "numpy"
                or name.split(".")[-1] == "numerics"}


def test_separable_rule_matches_closed_form():
    u, v, b, c, scale, want = _closed_form_grid()
    value, est = integrate_separable(u, v, b, c, scale)
    assert value.shape == est.shape == (len(b), len(c))
    assert len(np.unique(np.rint(np.log2(scale)))) >= 6
    assert np.all(abs(value / want - 1.0) <= 1e-13)
    assert np.all(abs(value - want) <= est)
    assert np.all(est < quadrature.REL_TOL * want)


def test_separable_point_alone_equals_point_in_grid():
    # a point's value and estimate depend on its own row, column and
    # bucket: a 1 x 1 call gives them bit for bit
    u, v, b, c, scale, _ = _closed_form_grid()
    value, est = integrate_separable(u, v, b, c, scale)
    for i, j in np.ndindex(value.shape):
        alone = integrate_separable(u, v, b[i:i + 1], c[j:j + 1],
                                    scale[i:i + 1, j:j + 1])
        assert (alone[0][0, 0], alone[1][0, 0]) == (value[i, j], est[i, j])


def test_separable_fine_pass_only_for_failing_points(monkeypatch):
    # Gaussian bumps e^(-(p + q)(t - 5)^2) at scale 4: width above ~1 needs
    # the step-1/64 rule, narrower passes on step 1/32.  In one bucket, the
    # odd nodes are formed for the failing points only (their rows and
    # columns of the factors, their point rows), and every point equals its
    # own 1 x 1 call
    odd_factor_rows = []

    def bump(p, t):
        if t.shape[-1] == len(quadrature.NODE_TABLE) // 2:
            odd_factor_rows.append(len(p))
        return np.exp(-p * (t - 5.0) ** 2)

    p = np.array([0.1, 0.2, 0.9])
    q = np.array([0.05, 0.1, 0.3])
    scale = np.full((3, 3), 4.0)
    refined, odd_rows = [], []
    rule = quadrature._rule

    def spy(scale, terms):
        def counted(nodes, weights, rows):
            out = terms(nodes, weights, rows)
            if not isinstance(rows, slice):  # the fine pass
                odd_rows.append(len(out))
            return out
        out = rule(scale, counted)
        refined.append(out[2])
        return out

    monkeypatch.setattr(quadrature, "_rule", spy)
    alone = {}
    for i, j in np.ndindex(scale.shape):
        v, e = integrate_separable(bump, bump, p[i:i + 1], q[j:j + 1],
                                   scale[i:i + 1, j:j + 1])
        alone[i, j] = (v[0, 0], e[0, 0], refined.pop())
    odd_rows.clear()
    odd_factor_rows.clear()
    failing = [ij for ij, (_, _, fine) in alone.items() if fine]
    assert 0 < len(failing) < 9
    value, est = integrate_separable(bump, bump, p, q, scale)
    assert odd_rows == [len(failing)]
    assert odd_factor_rows == [len({i for i, _ in failing}),
                               len({j for _, j in failing})]
    for ij, (v, e, _) in alone.items():
        assert (value[ij], est[ij]) == (v, e)
    # the integral of e^(-s (t - 5)^2) over t > 0 is
    # sqrt(pi/s) (1 - erfc(5 sqrt(s))/2)
    s = p[:, None] + q
    want = np.sqrt(math.pi / s) * (1.0 - 0.5 * np.vectorize(math.erfc)(
        5.0 * np.sqrt(s)))
    assert np.all(abs(value - want) <= est)


def test_separable_failure_carries_point_arrays():
    # (1 + t)^(-p) is not integrable at p = 1; the p = 3 point still
    # reports its value 1/2 and a small estimate
    with pytest.raises(QuadratureError) as err:
        integrate_separable(lambda p, t: (1.0 + t) ** -p,
                            lambda q, t: np.exp(-q * t), np.array([3.0, 1.0]),
                            np.zeros(1), np.ones((2, 1)))
    value, est = err.value.value, err.value.est_error
    assert value.shape == est.shape == (2, 1)
    assert abs(value[0, 0] - 0.5) <= est[0, 0] < 1e-12
    assert est[1, 0] > 1e-9 * abs(value[1, 0])


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

    monkeypatch.setattr(solver, "find_roots_bracketed", recording)
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
