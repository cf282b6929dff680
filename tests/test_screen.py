import numpy as np
import pytest

from demqa.errors import InsufficientDataError
from demqa.sample import SampleRecord, SampleTable
from demqa.screen import fences_of, quartiles, tukey_filter, validity_filter


def rec(delta, code=1, h_dem=None, rid=None):
    h = delta if h_dem is None else h_dem
    return SampleRecord(
        id=rid or f"r{delta}", x=0.0, y=0.0, h_ref=0.0,
        h_dem=h, delta_h=delta, class_code=code,
    )


def recs(deltas):
    return SampleTable.of(rec(d, rid=f"r{i}") for i, d in enumerate(deltas))


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
    assert [r.delta_h for r in removed] == [100]
    assert len(kept) == 4


def test_tukey_symmetric_keeps_all():
    kept, removed, _ = tukey_filter(recs([-2, -1, 0, 1, 2]))
    assert list(removed) == []
    assert len(kept) == 5


def test_tukey_value_on_fence_is_kept():
    # iqr 0 puts both fences at exactly 0; zeros sit on the fence and stay.
    kept, removed, fences = tukey_filter(recs([-10, 0, 0, 0, 0, 10]))
    assert (fences.lower, fences.upper) == (0, 0)
    assert sorted(r.delta_h for r in removed) == [-10, 10]
    assert all(r.delta_h == 0 for r in kept)
    assert fences_of([1, 2, 3, 4, 5]).upper == 7.0


def test_tukey_partition_preserves_input():
    data = recs([3, -8, 0, 1, 2, 50, -1])
    kept, removed, _ = tukey_filter(data)
    assert sorted(r.id for r in [*kept, *removed]) == sorted(r.id for r in data)


def test_tukey_insufficient_data():
    with pytest.raises(InsufficientDataError):
        tukey_filter(recs([1]))


def test_tukey_field_choice():
    records = SampleTable.of(
        SampleRecord(id=i, x=0, y=0, h_ref=0, h_dem=h, delta_h=0.0, class_code=1)
        for i, h in zip("abcd", [5.0, 5.0, 5.0, 500.0])
    )
    kept, removed, _ = tukey_filter(records, field="h_dem")
    assert [r.id for r in removed] == ["d"]
    with pytest.raises(ValueError):
        tukey_filter(records, field="x")


def test_tukey_refilter_with_same_fences_removes_nothing():
    rng = np.random.default_rng(5)
    data = recs(rng.normal(0, 3, 100).tolist())
    kept, _, fences = tukey_filter(data)
    for r in kept:
        assert fences.lower <= r.delta_h <= fences.upper


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
        expect_removed = {r.id for r in data if r.delta_h < lower or r.delta_h > upper}
        assert {r.id for r in removed} == expect_removed
        assert fences.q1 == pytest.approx(q1, abs=1e-12)
        assert fences.q3 == pytest.approx(q3, abs=1e-12)


def test_validity_filter_excluded_class():
    water = rec(1.0, code=5, rid="w")
    ok = rec(1.0, code=1, rid="ok")
    kept, removed = validity_filter(SampleTable.of([water, ok]), exclude_classes={5})
    assert [r.id for r in kept] == ["ok"]
    assert [r.id for r in removed] == ["w"]


def test_validity_filter_min_h():
    low = SampleRecord(id="low", x=0, y=0, h_ref=0, h_dem=-1.0, delta_h=-1.0, class_code=1)
    ok = SampleRecord(id="ok", x=0, y=0, h_ref=0, h_dem=3.0, delta_h=3.0, class_code=1)
    kept, removed = validity_filter(SampleTable.of([low, ok]), min_h=0.0)
    assert [r.id for r in removed] == ["low"]
    # without min_h the record stays
    kept, removed = validity_filter(SampleTable.of([low, ok]))
    assert list(removed) == []


def test_validity_filter_missing_values():
    no_dem = SampleRecord(id="nd", x=0, y=0, h_ref=0, h_dem=None, delta_h=None, class_code=1)
    no_class = SampleRecord(id="nc", x=0, y=0, h_ref=0, h_dem=1.0, delta_h=1.0, class_code=None)
    kept, removed = validity_filter(SampleTable.of([no_dem, no_class]))
    assert list(kept) == []
    kept, removed = validity_filter(SampleTable.of([no_class]), require_class=False)
    assert [r.id for r in kept] == ["nc"]


def test_validity_filter_keeps_fully_valid():
    ok = rec(0.5, code=2, rid="ok")
    kept, removed = validity_filter(SampleTable.of([ok]), exclude_classes={5}, min_h=0.0)
    assert [r.id for r in kept] == ["ok"]
