import numpy as np
import pytest

from demqa.errors import InsufficientDataError
from demqa.sample import SampleTable
from demqa.screen import fences_of, quartiles, tukey_filter, validity_filter


def table(ids, h_dem, delta_h, class_code):
    """Rows at (0, 0) with h_ref 0 and the given columns; None is missing."""
    n = len(ids)
    return SampleTable(ids=list(ids), x=np.zeros(n), y=np.zeros(n), h_ref=np.zeros(n),
                       h_dem=h_dem, delta_h=delta_h, class_code=class_code)


def recs(deltas):
    deltas = list(deltas)
    return table([f"r{i}" for i in range(len(deltas))], deltas, deltas, [1] * len(deltas))


def test_quartiles_hand_case():
    # h = (5-1)*0.25 = 1 -> v[1] = 2; h = 3 -> v[3] = 4
    assert quartiles([1, 2, 3, 4, 5]) == (2, 4)


def test_quartiles_constant():
    assert quartiles([5, 5, 5, 5]) == (5, 5)


def test_quartiles_single_value_errors():
    with pytest.raises(InsufficientDataError):
        quartiles([1])


def test_quartiles_interpolates():
    # n=4: q1 at h=0.75 -> 1 + 0.75*(2-1) = 1.75; q3 at h=2.25 -> 3.25
    q1, q3 = quartiles([1, 2, 3, 4])
    assert q1 == pytest.approx(1.75, abs=1e-15)
    assert q3 == pytest.approx(3.25, abs=1e-15)


def test_quartiles_monotone_in_max():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(0, 5, int(rng.integers(2, 40))).tolist()
        _, q3 = quartiles(v)
        _, q3b = quartiles(v + [max(v) + abs(rng.normal())])
        assert q3b >= q3 - 1e-12


def test_tukey_zero_iqr_removes_spike():
    kept, removed, fences = tukey_filter(recs([0, 0, 0, 0, 100]))
    assert fences.q1 == 0 and fences.q3 == 0
    assert fences.lower == 0 and fences.upper == 0
    assert removed.delta_h.tolist() == [100]
    assert len(kept) == 4


def test_tukey_symmetric_keeps_all():
    kept, removed, _ = tukey_filter(recs([-2, -1, 0, 1, 2]))
    assert len(removed) == 0
    assert len(kept) == 5


def test_tukey_value_on_fence_is_kept():
    # iqr 0 puts both fences at exactly 0; zeros sit on the fence and stay.
    kept, removed, fences = tukey_filter(recs([-10, 0, 0, 0, 0, 10]))
    assert (fences.lower, fences.upper) == (0, 0)
    assert sorted(removed.delta_h.tolist()) == [-10, 10]
    assert (kept.delta_h == 0).all()
    assert fences_of([1, 2, 3, 4, 5]).upper == 7.0


def test_tukey_partition_preserves_input():
    data = recs([3, -8, 0, 1, 2, 50, -1])
    kept, removed, _ = tukey_filter(data)
    assert sorted(kept.ids + removed.ids) == sorted(data.ids)


def test_tukey_insufficient_data():
    with pytest.raises(InsufficientDataError):
        tukey_filter(recs([1]))


def test_tukey_field_choice():
    records = table("abcd", [5.0, 5.0, 5.0, 500.0], [0.0] * 4, [1] * 4)
    kept, removed, _ = tukey_filter(records, field="h_dem")
    assert removed.ids == ["d"]
    with pytest.raises(ValueError):
        tukey_filter(records, field="x")


def test_tukey_refilter_with_same_fences_removes_nothing():
    rng = np.random.default_rng(5)
    data = recs(rng.normal(0, 3, 100).tolist())
    kept, _, fences = tukey_filter(data)
    assert ((fences.lower <= kept.delta_h) & (kept.delta_h <= fences.upper)).all()


def test_tukey_matches_brute_force_oracle():
    # Independent re-derivation: numpy quantiles + literal fence comparison.
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(5, 501))
        kind = trial % 4
        if kind == 0:
            v = rng.normal(0, rng.uniform(0.5, 10), n)
        elif kind == 1:
            v = rng.uniform(-50, 50, n)
        elif kind == 2:
            v = rng.integers(-5, 6, n).astype(float)  # heavy ties, iqr often small
        else:
            v = rng.lognormal(0, 1, n)  # skewed: outliers common
        data = recs(v.tolist())
        kept, removed, fences = tukey_filter(data)

        q1, q3 = np.percentile(v, [25, 75], method="linear")
        lower = q1 - 1.5 * (q3 - q1)
        upper = q3 + 1.5 * (q3 - q1)
        expect_removed = {i for i, d in zip(data.ids, v) if d < lower or d > upper}
        assert set(removed.ids) == expect_removed
        assert fences.q1 == pytest.approx(q1, abs=1e-12)
        assert fences.q3 == pytest.approx(q3, abs=1e-12)


def test_validity_filter_excluded_class():
    water_and_ok = table(["w", "ok"], [1.0, 1.0], [1.0, 1.0], [5, 1])
    kept, removed = validity_filter(water_and_ok, exclude_classes={5})
    assert kept.ids == ["ok"]
    assert removed.ids == ["w"]


def test_validity_filter_min_h():
    low_and_ok = table(["low", "ok"], [-1.0, 3.0], [-1.0, 3.0], [1, 1])
    kept, removed = validity_filter(low_and_ok, min_h=0.0)
    assert removed.ids == ["low"]
    # without min_h the record stays
    kept, removed = validity_filter(low_and_ok)
    assert len(removed) == 0


def test_validity_filter_missing_values():
    no_dem_and_no_class = table(["nd", "nc"], [None, 1.0], [None, 1.0], [1, None])
    kept, removed = validity_filter(no_dem_and_no_class)
    assert len(kept) == 0
    kept, removed = validity_filter(no_dem_and_no_class.take([1]), require_class=False)
    assert kept.ids == ["nc"]


def test_validity_filter_keeps_fully_valid():
    ok = table(["ok"], [0.5], [0.5], [2])
    kept, removed = validity_filter(ok, exclude_classes={5}, min_h=0.0)
    assert kept.ids == ["ok"]
