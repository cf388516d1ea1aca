"""Quadrature, root finding, and series summation contracts."""

import math

import pytest

from pairtrap.numerics import (NumericsError, QuadratureError, QuadratureSpec,
                               RootBracket, SeriesError, bracket_from_signs,
                               find_root_bracketed,
                               integrate_semi_infinite_with_error,
                               sum_series_with_error)


def test_quadrature_smooth_exponential():
    value, est = integrate_semi_infinite_with_error(lambda t: math.exp(-t))
    assert abs(value - 1.0) < 1e-12
    assert est < 1e-8
    assert abs(value - 1.0) <= 10.0 * max(est, 1e-16)


def test_quadrature_integrable_endpoint_singularity():
    # t^(-1/2) e^(-t) integrates to sqrt(pi); the head substitution must
    # absorb the inverse-sqrt blowup at t = 0
    value, _ = integrate_semi_infinite_with_error(
        lambda t: math.exp(-t) / math.sqrt(t))
    assert abs(value - math.sqrt(math.pi)) < 1e-10


def test_quadrature_gaussian_tail():
    value, _ = integrate_semi_infinite_with_error(
        lambda t: t * math.exp(-t * t))
    assert abs(value - 0.5) < 1e-12


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(split_point=0.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:The integral is probably divergent")
def test_quadrature_reports_failure():
    # oscillatory non-decaying integrand cannot satisfy the tolerance
    with pytest.raises((QuadratureError, NumericsError)):
        integrate_semi_infinite_with_error(math.cos)


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


def test_sum_series_geometric():
    total, est, used = sum_series_with_error(lambda k: 0.5 ** k)
    assert abs(total - 2.0) < 1e-12
    assert used < 100
    assert abs(total - 2.0) <= 10.0 * max(est, 1e-16)


def test_sum_series_alternating():
    # log(2) = sum (-1)^(k) / (k+1) is too slow for the cap; a transformed
    # fast series must pass: sum 1/(2^k (k+1)) = 2 log 2
    total, _, _ = sum_series_with_error(lambda k: 1.0 / (2.0 ** k * (k + 1.0)))
    assert abs(total - 2.0 * math.log(2.0)) < 1e-12


def test_sum_series_divergence_reported():
    with pytest.raises(SeriesError) as err:
        sum_series_with_error(lambda k: 1.0 / (k + 1.0), tol=1e-12,
                              max_terms=2000)
    assert err.value.terms_used == 2000


def test_series_error_carries_partial_state():
    try:
        sum_series_with_error(lambda k: 1.0, tol=1e-12, max_terms=50)
    except SeriesError as err:
        assert err.value == pytest.approx(50.0)
        assert err.terms_used == 50
    else:
        pytest.fail("non-decaying series must raise")
