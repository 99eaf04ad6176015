"""Loss values, analytic derivatives and convexity."""

import numpy as np
import pytest

from rkhstest.losses import (
    absolute_loss,
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

    def test_nonnegative_square_and_absolute(self):
        rng = np.random.default_rng(0)
        y, t = rng.normal(size=50), rng.normal(size=50)
        assert np.all(square_loss().value(y, t) >= 0)
        assert np.all(absolute_loss().value(y, t) >= 0)


class TestDerivatives:
    def test_square_first(self):
        assert square_loss().deriv(1, 2.0, 0.5) == pytest.approx(-3.0)

    def test_first_derivative_vanishes_at_a_perfect_fit(self):
        y = np.linspace(-1, 1, 5)
        assert np.array_equal(square_loss().deriv(1, y, y), np.zeros(5))
        # the Poisson score exp(t) - y is exactly 0 at y = 1, t = 0
        assert poisson_loss().deriv(1, np.array([1.0]), np.array([0.0]))[0] == 0.0

    def test_absolute_sign_convention(self):
        loss = absolute_loss()
        assert loss.deriv(1, 1.0, 0.0) == 1.0
        assert loss.deriv(1, 0.0, 1.0) == -1.0
        # at the kink the indicator is >=, so the derivative is +1
        assert loss.deriv(1, 0.5, 0.5) == 1.0

    def test_poisson_second_matches_finite_difference(self):
        loss = poisson_loss()
        t, h = 0.3, 1e-5
        fd = (loss.deriv(1, 1.0, t + h) - loss.deriv(1, 1.0, t - h)) / (2 * h)
        assert loss.deriv(2, 1.0, t) == pytest.approx(np.exp(0.3), rel=1e-9)
        assert loss.deriv(2, 1.0, t) == pytest.approx(fd, rel=1e-6)

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
    from rkhstest.estimators import line_search

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


class TestErrors:
    def test_logistic_label_check(self):
        with pytest.raises(ValueError, match="-1"):
            logistic_loss().value(0.5, 0.0)

    def test_absolute_higher_orders_unavailable(self):
        with pytest.raises(ValueError, match="non-smooth"):
            absolute_loss().deriv(2, 1.0, 0.0)
        with pytest.raises(ValueError, match="non-smooth"):
            absolute_loss().deriv(3, 1.0, 0.0)

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
    assert loss_by_name("poisson").kind == "poisson_count"
    assert not loss_by_name("absolute").smooth
    with pytest.raises(ValueError, match="unknown loss"):
        loss_by_name("hinge")
