"""Loss values, analytic derivatives and convexity."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rkhstest import estimators
from rkhstest.estimators import line_search
from rkhstest.losses import (
    duration_loss,
    logistic_loss,
    loss_by_name,
    poisson_loss,
    rescaled_square_loss,
    square_loss,
)

SMOOTH = {
    "square": (square_loss(), lambda rng: rng.normal(size=20)),
    "rescaled_square": (rescaled_square_loss(), lambda rng: rng.normal(size=20)),
    "poisson_count": (poisson_loss(), lambda rng: rng.poisson(2.0, size=20).astype(float)),
    "logistic": (logistic_loss(), lambda rng: rng.choice([-1.0, 1.0], size=20)),
    "duration_hazard": (duration_loss(), lambda rng: rng.exponential(1.0, size=20) + 0.05),
}


class TestValues:
    def test_square(self):
        assert square_loss().value(1.0, 0.0) == 1.0

    def test_poisson(self):
        assert poisson_loss().value(0.0, 0.0) == 1.0

    def test_logistic(self):
        assert logistic_loss().value(1.0, 0.0) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_nonnegative_square(self):
        rng = np.random.default_rng(0)
        y, t = rng.normal(size=50), rng.normal(size=50)
        assert np.all(square_loss().value(y, t) >= 0)


class TestDerivatives:
    def test_square_first(self):
        assert square_loss().deriv(1, 2.0, 0.5) == pytest.approx(-3.0)

    def test_first_derivative_vanishes_at_a_perfect_fit(self):
        y = np.linspace(-1, 1, 5)
        assert np.array_equal(square_loss().deriv(1, y, y), np.zeros(5))
        # the Poisson score exp(t) - y is exactly 0 at y = 1, t = 0
        assert poisson_loss().deriv(1, np.array([1.0]), np.array([0.0]))[0] == 0.0

    def test_poisson_second_matches_finite_difference(self):
        loss = poisson_loss()
        t, h = 0.3, 1e-5
        fd = (loss.deriv(1, 1.0, t + h) - loss.deriv(1, 1.0, t - h)) / (2 * h)
        assert loss.deriv(2, 1.0, t) == pytest.approx(np.exp(0.3), rel=1e-9)
        assert loss.deriv(2, 1.0, t) == pytest.approx(fd, rel=1e-6)

    def test_logistic_sigmoid_matches_scipy_expit(self):
        # the first derivative at y = 1, t = -u is -sigmoid(u); expit computes
        # the same 1 / (1 + e^{-u}), but numpy's exp may differ from libm's by
        # one ulp, which rounding 1 + e^{-u} (near e^{-u} ~ 1e16) and the
        # division widen to at most four ulps of the sigmoid
        u = np.linspace(-745.0, 745.0, 200_001)
        sigmoid = -logistic_loss().deriv(1, 1.0, -u)
        assert np.all(np.abs(sigmoid - expit(u)) <= 4 * np.spacing(expit(u)))

    def test_logistic_sigmoid_saturates_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigmoid = -logistic_loss().deriv(1, 1.0, np.array([1000.0, -1000.0]))
            assert np.array_equal(sigmoid, [0.0, 1.0])
            assert np.array_equal(logistic_loss().deriv(2, 1.0, np.array([1000.0, -1000.0])), [0.0, 0.0])

    @pytest.mark.parametrize("name", sorted(SMOOTH))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_consistency_with_finite_differences(self, name, order):
        loss, draw_y = SMOOTH[name]
        rng = np.random.default_rng(42)
        y = draw_y(rng)
        t = rng.uniform(-5, 5, size=20)
        h = 1e-5
        lower = loss.value if order == 1 else (lambda yy, tt: loss.deriv(order - 1, yy, tt))
        fd = (lower(y, t + h) - lower(y, t - h)) / (2 * h)
        analytic = loss.deriv(order, y, t)
        tol = np.maximum(1e-6, 1e-6 * np.abs(analytic))
        assert np.all(np.abs(analytic - fd) <= tol)

    @pytest.mark.parametrize("loss, kappa", [(square_loss(), 1.0), (rescaled_square_loss(), 0.5)])
    def test_square_losses_are_one_family_in_kappa(self, loss, kappa):
        # L = kappa (y - t)^2, and the scale the ridge solver and the certified
        # line search read is that same kappa
        rng = np.random.default_rng(5)
        y, t = rng.normal(size=12), rng.normal(size=12)
        assert loss._square_scale == kappa
        assert np.all(loss.value(y, t) == kappa * (y - t) ** 2)
        assert np.all(loss.deriv(1, y, t) == 2.0 * kappa * (t - y))
        assert np.all(loss.deriv(2, y, t) == 2.0 * kappa)
        assert np.all(loss.deriv(3, y, t) == 0.0)

    def test_rescaled_square_unit_curvature(self):
        loss = rescaled_square_loss()
        rng = np.random.default_rng(3)
        y, t = rng.normal(size=10), rng.normal(size=10)
        assert np.array_equal(loss.deriv(2, y, t), np.ones(10))
        # generalized residual is -(y - t)
        assert np.allclose(loss.deriv(1, y, t), -(y - t))

    @pytest.mark.parametrize("name", sorted(SMOOTH))
    def test_convexity(self, name):
        loss, draw_y = SMOOTH[name]
        rng = np.random.default_rng(7)
        y = draw_y(rng)
        t = rng.uniform(-5, 5, size=20)
        d2 = loss.deriv(2, y, t)
        assert np.all(d2 >= 0)
        if name in ("square", "rescaled_square", "poisson_count", "duration_hazard"):
            assert np.all(d2 > 0)


def _golden_points(count):
    """The first ``count`` points the golden-section line search evaluates."""
    seen = []
    line_search(lambda t: seen.append(t) or (t - 0.3) ** 2)
    return seen[:count]


class TestSegmentMean:
    @pytest.mark.parametrize("name", sorted(SMOOTH))
    def test_equals_mean_of_value_exactly(self, name):
        loss, draw_y = SMOOTH[name]
        rng = np.random.default_rng(17)
        y = draw_y(rng)
        start, delta = rng.uniform(-1, 1, size=20), rng.uniform(-2, 2, size=20)
        objective = loss.segment_mean(y, start, delta)
        for t in [0.0, 1.0] + _golden_points(6):
            assert objective(t) == float(np.mean(loss.value(y, start + t * delta)))

    @pytest.mark.parametrize(
        "loss, y, start, delta",
        [
            (square_loss(), np.zeros(3), np.array([0.0, np.nan, 0.0]), np.zeros(3)),
            (square_loss(), np.zeros(3), np.zeros(3), np.array([0.0, np.inf, 0.0])),
            (square_loss(), np.zeros(2), np.full(2, 1e308), np.full(2, 1e308)),
            (poisson_loss(), np.array([1.0, -1.0]), np.zeros(2), np.ones(2)),
            (logistic_loss(), np.array([1.0, 0.5]), np.zeros(2), np.ones(2)),
            (duration_loss(), np.array([1.0, 0.0]), np.zeros(2), np.ones(2)),
        ],
        ids=["nan_start", "inf_end", "overflowing_end", "poisson_negative",
             "logistic_label", "duration_nonpositive"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_raises_what_value_raises(self, loss, y, start, delta):
        bad = start if not np.all(np.isfinite(start)) else start + delta
        with pytest.raises(ValueError) as from_value:
            loss.value(y, bad)
        with pytest.raises(ValueError) as from_segment:
            loss.segment_mean(y, start, delta)
        assert str(from_segment.value) == str(from_value.value)


class _Probe:
    """Wraps an objective; records the pairs line_search asks ``order`` about."""

    def __init__(self, objective):
        self.objective, self.pairs = objective, []

    def __call__(self, t):
        return self.objective(t)

    def order(self, p, q):
        self.pairs.append((p, q))
        return getattr(self.objective, "order", lambda p, q: None)(p, q)


def _draw_segment(data):
    """A square-loss segment built to put the certificate near its limits.

    Sizes 1 to 2000, optionally a scalar y; residuals of 1e-3 on ends of
    size 1e6; directions that are zero, ~1e-12 (a converged plateau), random,
    or r / t* for a minimizer t* at 0, at 1, past either end, inside, or
    midway between two points the search compares, where the exact values tie.
    """
    loss = data.draw(st.sampled_from([square_loss(), rescaled_square_loss()]))
    n = data.draw(st.integers(1, 2000))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    offset = data.draw(st.sampled_from([0.0, 1e6]))
    start = offset * np.sign(rng.normal(size=n)) + rng.normal(size=n)
    y = start + (1e-3 if offset else 1.0) * rng.normal(size=n)
    if data.draw(st.booleans()):
        y = float(y[0])
    residual = y - start
    kind = data.draw(st.sampled_from(["minimizer", "zero", "plateau", "random"]))
    if kind == "minimizer":
        x = data.draw(st.floats(0.0, 1.0))
        probe = _Probe(lambda t: (t - x) ** 2)
        line_search(probe)
        pair = data.draw(st.sampled_from(probe.pairs))
        t_star = data.draw(
            st.sampled_from([1e-9, 0.5, 1.0, -0.25, 1.5, sum(pair) / 2])
            | st.floats(0.01, 1.0)
        )
        delta = residual / t_star
    elif kind == "zero":
        delta = np.zeros(n)
    else:
        delta = (1e-12 if kind == "plateau" else 3.0) * rng.normal(size=n)
    return loss.segment_mean(y, start, delta)


def _search_with_width(objective, tol):
    """``line_search`` with its final bracket width set to ``tol``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_LINE_SEARCH_TOL", tol)
        return line_search(objective)


class TestCertifiedOrder:
    """The square losses' segments decide comparisons without changing any."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_line_search_is_bit_identical_to_direct_evaluation(self, data):
        objective = _draw_segment(data)
        tol = data.draw(st.sampled_from([1e-6, 1e-3, 1e-12]))
        direct = _search_with_width(lambda t: objective(t), tol)
        assert _search_with_width(objective, tol) == direct

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_a_certified_sign_is_the_sign_of_the_direct_evaluations(self, data):
        objective = _draw_segment(data)
        probe = _Probe(objective)
        _search_with_width(probe, data.draw(st.sampled_from([1e-6, 1e-12])))
        p = data.draw(st.floats(0.0, 1.0))
        drawn = [(p, data.draw(st.floats(0.0, 1.0))), (p, float(np.nextafter(p, 2.0)))]
        for p, q in probe.pairs + drawn:
            sign = objective.order(p, q)
            if sign is not None:
                assert np.sign(objective(p) - objective(q)) == sign

    def test_only_the_square_losses_certify(self):
        for name, (loss, draw_y) in SMOOTH.items():
            y = draw_y(np.random.default_rng(3))
            objective = loss.segment_mean(y, np.zeros(20), np.ones(20))
            assert hasattr(objective, "order") == (name in ("square", "rescaled_square"))


class TestErrors:
    def test_logistic_label_check(self):
        with pytest.raises(ValueError, match="-1"):
            logistic_loss().value(0.5, 0.0)

    def test_poisson_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            poisson_loss().value(-1.0, 0.0)

    def test_duration_positive_only(self):
        with pytest.raises(ValueError, match="positive"):
            duration_loss().value(0.0, 0.0)

    def test_nonfinite_t_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            square_loss().value(1.0, np.inf)


def test_lookup_by_name():
    assert loss_by_name("square").kind == "square"
    assert loss_by_name("poisson_count").kind == "poisson_count"
    assert loss_by_name("duration_hazard").kind == "duration_hazard"
    for name in ("absolute", "hinge", "poisson", "duration"):
        with pytest.raises(ValueError, match="unknown loss"):
            loss_by_name(name)
