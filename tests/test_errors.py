"""The error classes: which errors are input errors."""

import pytest

from layerfmm import errors

#: the errors bad input raises
INPUT_ERRORS = [
    errors.DomainError, errors.PointOnInterface, errors.ComponentAbsent,
    errors.InvalidSpectralArgument, errors.IndexOutOfRange, errors.ChargeOutsideBox,
    errors.ChargeInsideBox, errors.BoxesNotSeparated, errors.CenterOnWrongSide,
    errors.BoxCrossesInterface,
]


@pytest.mark.parametrize("cls", INPUT_ERRORS, ids=lambda cls: cls.__name__)
def test_input_errors_are_domain_errors(cls):
    assert issubclass(cls, errors.DomainError)
    assert issubclass(cls, ValueError)
    assert issubclass(cls, errors.LayerFMMError)


@pytest.mark.parametrize("cls", [errors.InvariantViolated, errors.DegenerateDenominator,
                                 errors.ToleranceNotMet], ids=lambda cls: cls.__name__)
def test_defects_and_tolerance_misses_are_not_input_errors(cls):
    assert issubclass(cls, errors.LayerFMMError)
    assert not issubclass(cls, errors.DomainError)


def test_order_error_is_a_domain_and_an_overflow_error():
    assert issubclass(errors.OrderTooHigh, errors.DomainError)
    assert issubclass(errors.OrderTooHigh, OverflowError)
