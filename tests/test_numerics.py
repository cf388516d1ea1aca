"""Quadrature and root finding contracts."""

import math

import numpy as np
import pytest

from pairtrap.numerics import (NumericsError, QuadratureError, RootBracket,
                               bracket_from_signs, find_root_bracketed,
                               integrate)


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


def test_root_bracketed_cosine():
    br = bracket_from_signs(math.cos, 1.0, 2.0)
    root = find_root_bracketed(math.cos, br)
    assert abs(root - math.pi / 2.0) < 1e-12


def test_root_bracketed_polynomial():
    br = bracket_from_signs(lambda x: x * x - 2.0, 0.0, 2.0)
    root = find_root_bracketed(lambda x: x * x - 2.0, br)
    assert abs(root - math.sqrt(2.0)) < 1e-12


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
