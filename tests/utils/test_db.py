"""Tests for decibel and power-unit conversions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.db import db_to_linear, linear_to_db, watts_to_dbm


class TestBasicConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_ten_db_is_factor_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_three_db_is_roughly_two(self):
        assert db_to_linear(3.0103) == pytest.approx(2.0, rel=1e-4)

    def test_linear_to_db_of_zero_is_finite(self):
        assert np.isfinite(linear_to_db(0.0))
        assert linear_to_db(0.0) < -3000.0

    def test_array_input_preserves_shape(self):
        values = np.array([0.0, 10.0, 20.0])
        assert db_to_linear(values).shape == values.shape

    def test_negative_db_is_attenuation(self):
        assert db_to_linear(-10.0) == pytest.approx(0.1)


class TestPowerUnits:
    @pytest.mark.parametrize("watts, dbm", [(1e-3, 0.0), (1.0, 30.0),
                                            (1e-7, -40.0)])
    def test_watts_to_dbm(self, watts, dbm):
        assert watts_to_dbm(watts) == pytest.approx(dbm)


class TestProperties:
    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_db_linear_roundtrip(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db,
                                                                     abs=1e-9)

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_linear_db_roundtrip(self, value):
        assert db_to_linear(linear_to_db(value)) == pytest.approx(value, rel=1e-9)

    @given(st.floats(min_value=-60.0, max_value=60.0),
           st.floats(min_value=-60.0, max_value=60.0))
    def test_db_addition_is_linear_multiplication(self, a_db, b_db):
        product = db_to_linear(a_db) * db_to_linear(b_db)
        assert product == pytest.approx(db_to_linear(a_db + b_db), rel=1e-9)
