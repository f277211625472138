"""Tests of the benchmark's own rules; standard library only, but for the
host-speed scaling, which is skipped without numpy and scipy.

Run with: python3 -m pytest -q bench
"""

import math
import statistics

import pytest

import oracle
import stats
import tracing


# ------------------------------------------------------------------ #
# The tail rule behind the latency tail in the run record
# ------------------------------------------------------------------ #

def test_tail_leaves_exactly_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]          # 1 .. 100
    t = stats.tail(xs)
    assert t == {"value": 90.0, "percentile": 90.0, "beyond": 10, "samples": 100}
    assert sum(x > t["value"] for x in xs) == 10


def test_tail_ignores_input_order():
    xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0]
    t = stats.tail(xs)
    assert (t["value"], t["samples"]) == (2.0, 12)
    assert t["percentile"] == pytest.approx(100.0 * 2 / 12)


def test_tail_with_too_few_samples_is_the_maximum():
    for n in (1, 10):
        t = stats.tail([float(i) for i in range(n)])
        assert t == {"value": float(n - 1), "percentile": 100.0, "beyond": 0,
                     "samples": n}


def test_tail_smallest_qualifying_sample_count():
    t = stats.tail([float(i) for i in range(11)])
    assert (t["value"], t["beyond"]) == (0.0, 10)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.tail([])


def test_iqm_drops_a_quarter_at_each_end():
    xs = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]     # drops -50, 1, 6, 100
    assert stats.iqm(xs) == pytest.approx(3.5)
    assert stats.iqm([7.0, 1.0, 4.0]) == pytest.approx(4.0)   # n < 4: plain mean
    assert stats.iqm([2.0]) == 2.0


def test_iqm_follows_the_middle_case_less_than_the_median():
    # 7 cases of two ops each; the median is the middle case, so it moves
    # with that case alone, while the interquartile mean averages 4 cases
    cases = [0.1, 1.0, 1.1, 1.2, 1.9, 2.0, 2.2]
    moved = [0.1, 1.0, 1.1, 1.32, 1.9, 2.0, 2.2]
    base, new = cases * 2, moved * 2
    assert statistics.median(new) / statistics.median(base) == pytest.approx(1.1)
    assert stats.iqm(base) == pytest.approx(11.4 / 8)
    assert stats.iqm(new) / stats.iqm(base) < 1.03


def test_iqm_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.iqm([])


# ------------------------------------------------------------------ #
# Scaling wall time by the reference kernel
# ------------------------------------------------------------------ #

def test_scale_by_the_mean_kernel_time_around_a_call():
    reference = pytest.importorskip("reference")
    ref_s = reference.Reference.REFERENCE_S
    scale = reference.Reference.scale
    # a host at reference speed leaves the time as it is
    assert scale(2.0, ref_s, ref_s) == pytest.approx(2.0)
    # a host half as fast: twice the wall time, the same scaled time
    assert scale(4.0, 2 * ref_s, 2 * ref_s) == pytest.approx(2.0)
    # a slow spell that ends during the call counts half
    assert scale(3.0, 2 * ref_s, ref_s) == pytest.approx(2.0)


# ------------------------------------------------------------------ #
# Self time and busy time over nested spans
# ------------------------------------------------------------------ #

def span(sid, parent, name, start, end, size=None):
    return (sid, parent, 0, name, start, end, size)


NESTED = [
    span(1, None, "op.graft", 0.0, 10.0),
    span(2, 1, "grafting.step", 1.0, 9.0),
    span(3, 2, "classify.cloud", 1.5, 3.0),
    span(4, 2, "sphere.lp", 3.0, 6.0, size=100),
    span(5, 4, "sphere.lp", 4.0, 5.0, size=50),     # nested same name
    span(6, 2, "curves.eval_lift", 7.0, 7.5),
    span(7, 2, "curves.eval_lift", 7.5, 8.0),
]


def test_self_time_subtracts_direct_children():
    # 8.0 long; children cover 1.5 + 3.0 + 0.5 + 0.5
    assert tracing.self_time(NESTED, "grafting.step") == pytest.approx(2.5)
    assert tracing.self_time(NESTED, "op.graft") == pytest.approx(2.0)
    assert tracing.self_time(NESTED, "sphere.lp") == pytest.approx(2.0 + 1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, None, "a", 0.0, 10.0),
             span(2, 1, "b", 1.0, 4.0),
             span(3, 1, "c", 3.0, 6.0),          # overlaps b on [3, 4]
             span(4, 1, "d", 9.0, 12.0)]         # runs past the parent
    assert tracing.self_time(spans, "a") == pytest.approx(10.0 - 5.0 - 1.0)


def test_busy_time_does_not_count_nested_same_name_twice():
    assert tracing.busy_time(NESTED, "sphere.lp") == pytest.approx(3.0)
    assert tracing.busy_time(NESTED, "curves.eval_lift") == pytest.approx(1.0)


def test_calls_and_sizes():
    assert tracing.calls(NESTED, "sphere.lp") == 2
    assert tracing.size_sum(NESTED, "sphere.lp") == 150


def test_pass_metrics_ratios():
    m = tracing.pass_metrics(NESTED, 2, {"graft_steps": 1, "retract_iters": 0,
                                         "bytes_written": 10})
    assert m["sphere.lp_calls_per_op"] == 1.0
    assert m["classify.cloud_builds_per_op"] == 0.5
    assert m["sphere.simplex_calls_per_step"] == 0.0
    assert m["grafting.step_self_s"] == pytest.approx(2.5)
    assert set(tracing.EXACT) <= set(m)


# ------------------------------------------------------------------ #
# The label oracle against the circle table
# ------------------------------------------------------------------ #

def test_component_counts():
    assert oracle.component_count(-math.inf, math.inf) == 2
    assert oracle.component_count(0.0, math.inf) == 3       # exactly pi/(pi/2)
    assert oracle.component_count(0.7, math.inf) == 4
    assert oracle.component_count(2.0, math.inf) == 7
    assert oracle.component_count(1.0, 4.0) == 6
    assert oracle.component_count(-0.5, 1.5) == 3
    assert oracle.component_count(-1.0, math.inf) == 2


@pytest.mark.parametrize("n, labels", [
    # circle traversed k = 1 .. 8 times: j = k while k <= n - 2, then the
    # top two components alternate with the parity (-1)^k
    (2, [1, 2, 1, 2, 1, 2, 1, 2]),
    (3, [1, 2, 3, 2, 3, 2, 3, 2]),
    (4, [1, 2, 3, 4, 3, 4, 3, 4]),
    (7, [1, 2, 3, 4, 5, 6, 7, 6]),
])
def test_circle_table(n, labels):
    assert [oracle.circle_label(n, k) for k in range(1, 9)] == labels


def test_loops_count_as_turns():
    # one loop on a 1-fold circle in (0, +inf), n = 3: two turns, j = 2
    assert oracle.circle_label(3, 1 + 1) == 2
    assert oracle.circle_label(7, 6 + 2) == 6


def test_parity_label():
    assert oracle.parity_label(3, 1) == 2
    assert oracle.parity_label(3, -1) == 3
    assert oracle.parity_label(2, -1) == 1
