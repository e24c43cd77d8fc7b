import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volintervals import (
    PriceSeries,
    ReturnSeries,
    VolatilitySeries,
    build_intraday_pattern,
    extract_intervals,
    intraday_detrend,
    log_returns,
    normalize_volatility,
    session_bounds,
    session_slots,
)
from volintervals.series import gap_report
from volintervals.synthetic import impose_intraday_pattern


def make_prices(values, start="2000-01-03"):
    n = len(values)
    ts = np.datetime64(start) + np.arange(n).astype("timedelta64[D]")
    return PriceSeries("test", ts.astype("datetime64[s]"), np.asarray(values, float),
                       np.timedelta64(1, "D"))


class TestLogReturns:
    def test_constant_price(self):
        r = log_returns(make_prices([5, 5, 5]))
        assert np.allclose(r.values, [0, 0])

    def test_exact_logs(self):
        r = log_returns(make_prices([1, np.e, np.e**3]))
        assert np.allclose(r.values, [1, 2])

    def test_hand_evaluated(self):
        r = log_returns(make_prices([100, 101]))
        assert r.values[0] == pytest.approx(np.log(1.01))
        assert r.values[0] == pytest.approx(0.0099503, abs=1e-7)

    def test_non_positive_price_names_index(self):
        with pytest.raises(ValueError, match="index 2"):
            make_prices([1.0, 2.0, -3.0, 4.0])

    def test_length(self):
        assert len(log_returns(make_prices([1, 2, 3, 4]))) == 3

    @given(st.floats(min_value=0.01, max_value=100))
    def test_scale_invariance(self, c):
        p = [100, 103, 99, 105, 101]
        base = log_returns(make_prices(p)).values
        scaled = log_returns(make_prices([c * v for v in p])).values
        assert np.allclose(base, scaled)


class TestNormalizeVolatility:
    def test_symmetric_returns_give_unit_volatility(self):
        for a in (0.5, 1.0, 7.0):
            g = normalize_volatility(ReturnSeries(np.array([a, -a, a, -a])))
            assert np.allclose(g.values, 1.0)

    def test_hand_evaluated(self):
        g = normalize_volatility(ReturnSeries(np.array([1.0, -1.0, 2.0, -2.0])))
        # population std of [1,-1,2,-2] is sqrt(2.5)
        assert np.sqrt(2.5) == pytest.approx(1.58114, abs=1e-5)
        assert np.allclose(g.values, [0.63246, 0.63246, 1.26491, 1.26491], atol=1e-5)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError, match="return series has zero standard deviation"):
            normalize_volatility(ReturnSeries(np.zeros(10)))

    def test_constant_growth_raises(self):
        # equal returns leave var = <G^2> - <G>^2 at 2e-22, the rounding of 1e-6
        t = np.arange(1000)
        prices = PriceSeries("g", t.astype("datetime64[D]"), 100 * 1.001 ** t, np.timedelta64(1, "D"))
        with pytest.raises(ValueError, match="return series has zero standard deviation"):
            normalize_volatility(log_returns(prices))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(200)
        base = normalize_volatility(ReturnSeries(r)).values
        for c in (-2.0, 0.5, 10.0):
            assert np.allclose(normalize_volatility(ReturnSeries(c * r)).values, base)

    def test_extraction_commutes_with_return_scaling(self, q=1.3):
        rng = np.random.default_rng(4)
        r = rng.standard_normal(5000)
        a = extract_intervals(normalize_volatility(ReturnSeries(r)), q)
        b = extract_intervals(normalize_volatility(ReturnSeries(3.7 * r)), q)
        assert np.array_equal(a, b)


class TestIntradayPattern:
    def test_two_identical_sessions(self):
        vol = VolatilitySeries(np.array([1.0, 2, 3, 1, 2, 3]))
        pat = build_intraday_pattern(vol, slots=[0, 1, 2, 0, 1, 2], session_ids=[0, 0, 0, 1, 1, 1])
        assert np.allclose(pat, [1, 2, 3])

    def test_mean_of_two_sessions(self):
        vol = VolatilitySeries(np.array([1.0, 3, 3, 1]))
        pat = build_intraday_pattern(vol, slots=[0, 1, 0, 1], session_ids=[0, 0, 1, 1])
        assert np.allclose(pat, [2, 2])
        # unsorted: the first and last sample share a session, another lies between them
        pat = build_intraday_pattern(vol, slots=[0, 1, 0, 1], session_ids=[1, 0, 0, 1])
        assert np.allclose(pat, [2, 2])

    def test_single_session_raises(self):
        vol = VolatilitySeries(np.array([1.0, 2, 3]))
        with pytest.raises(ValueError, match="intraday pattern needs at least 2 sessions"):
            build_intraday_pattern(vol, slots=[0, 1, 2], session_ids=[0, 0, 0])
        with pytest.raises(ValueError, match="intraday pattern needs at least 2 sessions"):
            build_intraday_pattern(VolatilitySeries(np.array([])), slots=[], session_ids=[])

    def test_empty_slot_is_nan_not_zero(self):
        vol = VolatilitySeries(np.array([1.0, 1.0]))
        pat = build_intraday_pattern(vol, slots=[0, 2], session_ids=[0, 1])
        assert np.isnan(pat[1])


class TestDetrend:
    def test_self_pattern_gives_ones(self):
        rng = np.random.default_rng(5)
        vol = VolatilitySeries(rng.exponential(size=40))
        slots = np.tile(np.arange(4), 10)
        sessions = np.repeat(np.arange(10), 4)
        pat = build_intraday_pattern(vol, slots, sessions)
        out = intraday_detrend(vol, pat, slots)
        for s in range(4):
            assert out.values[slots == s].mean() == pytest.approx(1.0, abs=1e-9)

    def test_elementwise_division(self):
        vol = VolatilitySeries(np.array([2.0, 4.0, 2.0, 4.0]))
        pat = build_intraday_pattern(vol, [0, 1, 0, 1], [0, 0, 1, 1])
        out = intraday_detrend(VolatilitySeries(np.array([2.0, 4.0])), pat, [0, 1])
        assert np.allclose(out.values, [1.0, 1.0])

    def test_empty_slot_raises_naming_slot(self):
        vol = VolatilitySeries(np.array([1.0, 1.0]))
        pat = build_intraday_pattern(vol, slots=[0, 2], session_ids=[0, 1])
        with pytest.raises(ValueError, match="slot 1"):
            intraday_detrend(vol, pat, [0, 1])

    def test_zero_mean_slot_raises_naming_slot(self):
        vol = VolatilitySeries(np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="^pattern slot 1 is empty or non-positive$"):
            intraday_detrend(vol, np.array([1.0, 0.0]), [0, 1, 0])

    def test_removes_imposed_u_shape(self):
        rng = np.random.default_rng(6)
        base = VolatilitySeries(np.abs(rng.standard_normal(4 * 5000)))
        pattern = [2.0, 1.0, 1.0, 2.0]
        shaped = impose_intraday_pattern(base, pattern)
        slots = np.arange(len(shaped)) % 4
        sessions = np.arange(len(shaped)) // 4
        pat = build_intraday_pattern(shaped, slots, sessions)
        out = intraday_detrend(shaped, pat, slots)
        slot_means = [out.values[slots == s].mean() for s in range(4)]
        assert max(slot_means) / min(slot_means) < 1.01


def test_session_slots():
    ts = np.array(["2000-01-03T09:00", "2000-01-03T09:01", "2000-01-04T09:00"],
                  dtype="datetime64[s]")
    slots, sessions = session_slots(ts, "09:00", "15:00", np.timedelta64(60, "s"))
    assert slots.tolist() == [0, 1, 0]
    assert sessions[0] == sessions[1] != sessions[2]


def bars(start, n, step_s=60):
    return np.datetime64(start, "s") + np.arange(n) * np.timedelta64(step_s, "s")


def test_session_slots_sub_minute_step():
    # 200 one-second samples from the open are 200 slots, not 4 whole minutes
    slots, _ = session_slots(bars("2000-01-03T09:00", 200, 1), "09:00", "15:00", np.timedelta64(1, "s"))
    assert slots.tolist() == list(range(200))


@pytest.mark.parametrize("step_min", [1, 2, 5])
def test_session_slots_whole_minute_steps_ignore_seconds(step_min):
    # floor((60a + s) / 60k) == floor(a / k) for 0 <= s < 60
    ts = bars("2000-01-03T09:30", 300) + np.arange(300) % 60
    slots, _ = session_slots(ts, "09:30", "15:00", np.timedelta64(60 * step_min, "s"))
    assert slots.tolist() == [a // step_min for a in range(300)]


def test_session_is_half_open():
    bounds, step = ("09:00", "15:00"), np.timedelta64(60, "s")
    slots, _ = session_slots(bars("2000-01-03T09:00", 360), *bounds, step)
    assert slots.max() == 359
    with pytest.raises(ValueError, match="index 360 .*close 15:00"):
        session_slots(bars("2000-01-03T09:00", 361), *bounds, step)
    with pytest.raises(ValueError, match="index 0 .*open 09:00"):
        session_slots(bars("2000-01-03T08:59", 3), *bounds, step)


@pytest.mark.parametrize("open_time, close_time, message", [
    ("9am", "15:00", "session_open must be HH:MM"),
    ("09:00", "25:00", "session_close must be HH:MM"),
    ("09:60", "15:00", "session_open must be HH:MM"),
    ("0900", "15:00", "session_open must be HH:MM"),
    ("15:00", "09:00", "session_open 15:00 is not before session_close 09:00"),
    ("09:00", "09:00", "session_open 09:00 is not before"),
])
def test_session_calendar_rejects_bad_bounds(open_time, close_time, message):
    with pytest.raises(ValueError, match=message):
        session_bounds(open_time, close_time)
    # session_slots checks the bounds before it reads a timestamp
    with pytest.raises(ValueError, match=message):
        session_slots(bars("2000-01-03T09:00", 3), open_time, close_time, np.timedelta64(60, "s"))


def test_session_bounds_in_minutes():
    assert session_bounds("09:00", "15:00") == (540, 900)
    assert session_bounds("0:00", "23:59") == (0, 1439)


def test_gap_report():
    ts = np.array(["2000-01-03", "2000-01-04", "2000-01-07"], dtype="datetime64[s]")
    p = PriceSeries("g", ts, np.array([1.0, 2.0, 3.0]), np.timedelta64(1, "D"))
    assert gap_report(p) == [1]


def test_price_series_spanning_centuries():
    # the order check used to cast to nanoseconds, which overflows past 292 years
    ts = np.array(["1700-01-01", "2000-01-01"], dtype="datetime64[s]")
    assert len(PriceSeries("c", ts, np.array([1.0, 2.0]), np.timedelta64(1, "D"))) == 2
    with pytest.raises(ValueError, match="strictly increasing"):
        PriceSeries("c", ts[::-1], np.array([1.0, 2.0]), np.timedelta64(1, "D"))
