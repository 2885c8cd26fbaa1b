import warnings

import numpy as np
import pytest

from spintraj import Spin, SpinSystem, product_basis
from spintraj.expressions import parse_state

ONE_SPIN = product_basis(SpinSystem((Spin("1H", 2),)))
TWO_SPINS = product_basis(SpinSystem((Spin("1H", 2), Spin("13C", 2))))


@pytest.mark.parametrize("text", ["Lz(0)", "Lx(1)", "-Ly(0)", "T(1,1,-1)"])
def test_lone_primitive_is_normalized_silently(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = parse_state(TWO_SPINS, text)
    assert abs(state.norm - 1.0) < 1e-12


def test_negative_projection_inside_a_primitive_is_not_a_term():
    plus, minus = parse_state(ONE_SPIN, "T(0,1,1)"), parse_state(ONE_SPIN, "T(0,1,-1)")
    assert abs(np.vdot(plus.coefficients, minus.coefficients)) < 1e-12


@pytest.mark.parametrize("text", ["Lz(0) + Lz(1)", "2*Lz(0)", "0.5*T(0,1,0)"])
def test_weighted_expression_warns_when_rescaled(text):
    with pytest.warns(UserWarning, match="raw norm"):
        state = parse_state(TWO_SPINS, text)
    assert abs(state.norm - 1.0) < 1e-12


def test_weighted_expression_of_unit_norm_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = parse_state(ONE_SPIN, "1*T(0,1,0)")
    assert np.count_nonzero(np.abs(state.coefficients) > 1e-12) == 1
