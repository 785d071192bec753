import numpy as np
import pytest
from numpy.testing import assert_array_max_ulp
from scipy.special import expit

from fairfront._util import sigmoid


class TestSigmoid:
    """The numpy logistic against ``scipy.special.expit``, which it replaced."""

    def test_within_two_ulp_of_expit(self):
        # subnormal results lie below x = -708.4, zero below about -745
        x = np.linspace(-750.0, 750.0, 1_500_001)
        ours = sigmoid(x)
        assert np.any((ours > 0) & (ours < np.finfo(float).tiny)) and np.any(ours == 0.0)
        # one ulp of exp(-x) becomes up to four ulp of the result only where
        # exp(-x) lies in [2^52, 2^54): there 1 + exp(-x) rounds to an even
        # neighbour, which may double the gap between numpy's exp and libm's
        tie = (x > -np.log(2.0) * 54) & (x < -np.log(2.0) * 52)
        assert_array_max_ulp(ours[~tie], expit(x[~tie]), maxulp=2)
        assert_array_max_ulp(ours[tie], expit(x[tie]), maxulp=4)

    def test_raises_no_floating_point_error(self):
        x = np.array([-1e4, -745.5, -709.0, -40.0, 0.0, 40.0, 709.0, 745.5, 1e4])
        with np.errstate(all="raise"):
            ours = sigmoid(x)
        assert_array_max_ulp(ours, expit(x), maxulp=2)

    def test_nan_propagates(self):
        out = sigmoid(np.array([np.nan, 0.0, -np.inf, np.inf]))
        assert np.isnan(out[0]) and out[1] == 0.5 and out[2] == 0.0 and out[3] == 1.0

    @pytest.mark.parametrize("x", [0.3, -2, np.float64(5.0)])
    def test_scalar_in_scalar_out(self, x):
        out = sigmoid(x)
        assert np.ndim(out) == 0 and isinstance(out, float)
        assert out == pytest.approx(float(expit(x)), rel=1e-15)
