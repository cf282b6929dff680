import io
import math
import warnings

import numpy as np
import pytest

import demqa.landcover
from demqa.errors import DegenerateDataError, InsufficientDataError, ParseError, TrainingPointError
from demqa.landcover import (
    ClassBox,
    classify,
    read_legend_csv,
    read_training_csv,
    train_parallelepiped,
)
from demqa.raster import Grid


def one_band_image(values, ncols, nrows, nodata=-9999.0):
    return [Grid(ncols=ncols, nrows=nrows, xll=0, yll=0, cellsize=1,
                 nodata=nodata, values=values)]


def box(code, lo, hi, mean, label=None):
    return ClassBox(class_code=code, label=label or str(code),
                    lows=(lo,), highs=(hi,), means=(mean,))


def test_train_hand_case():
    # class pixels {10, 12}: mean 11, sample sd sqrt(2), k=2
    img = one_band_image([10.0, 12.0], 2, 1)
    boxes = train_parallelepiped(img, [(0.5, 0.5, 1), (1.5, 0.5, 1)], k=2.0)
    assert len(boxes) == 1
    b = boxes[0]
    assert b.means == (11.0,)
    assert b.lows[0] == pytest.approx(11 - 2 * math.sqrt(2), abs=1e-12)
    assert b.highs[0] == pytest.approx(11 + 2 * math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("k", [0.0, -1.0, float("nan")])
def test_train_rejects_k_not_positive(k):
    img = one_band_image([10.0, 12.0], 2, 1)
    with pytest.raises(ValueError, match="^k must be positive$"):
        train_parallelepiped(img, [(0.5, 0.5, 1), (1.5, 0.5, 1)], k=k)


def test_train_identical_pixels_zero_width():
    img = one_band_image([7.0, 7.0], 2, 1)
    boxes = train_parallelepiped(img, [(0.5, 0.5, 3), (1.5, 0.5, 3)])
    assert boxes[0].lows == boxes[0].highs == (7.0,)


def test_train_single_sample_class_errors():
    img = one_band_image([7.0, 7.0], 2, 1)
    with pytest.raises(InsufficientDataError, match="class 3"):
        train_parallelepiped(img, [(0.5, 0.5, 3)])


@pytest.mark.parametrize("pixels", [(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308),
                                    (1e154, -1e154)])
def test_train_overflowing_mean_or_sd_errors(pixels):
    img = one_band_image(pixels, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError, match="^class 1: the mean or SD of a band "
                                                      "overflows float64$"):
            train_parallelepiped(img, [(0.5, 0.5, 1), (1.5, 0.5, 1)])


def test_train_overflowing_bound_is_infinite():
    img = one_band_image([1e150, 3e150], 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (b,) = train_parallelepiped(img, [(0.5, 0.5, 1), (1.5, 0.5, 1)], k=1e300)
    assert b.lows == (-math.inf,) and b.highs == (math.inf,) and b.means == (2e150,)
    assert classify(img, [b]).values.tolist() == [[1.0, 1.0]]


def test_train_off_grid_point_errors():
    img = one_band_image([7.0, 7.0], 2, 1)
    with pytest.raises(ValueError, match="off the grid"):
        train_parallelepiped(img, [(5.0, 0.5, 1), (1.5, 0.5, 1)])


def test_train_nodata_point_errors():
    img = one_band_image([-9999.0, 7.0], 2, 1)
    with pytest.raises(ValueError, match="nodata"):
        train_parallelepiped(img, [(0.5, 0.5, 1), (1.5, 0.5, 1)])


def test_classify_simple_assignment():
    img = one_band_image([5.0], 1, 1)
    out = classify(img, [box(1, 0, 10, 5), box(2, 20, 30, 25)])
    assert out.values[0, 0] == 1


def test_classify_unmatched_pixel_is_zero():
    img = one_band_image([15.0], 1, 1)
    out = classify(img, [box(1, 0, 10, 5), box(2, 20, 30, 25)])
    assert out.values[0, 0] == 0


def test_classify_overlap_resolution():
    # pixel 9 in A=[0,10] (mean 5) and B=[8,18] (mean 14): |9-5|=4 < |9-14|=5
    img = one_band_image([9.0], 1, 1)
    out = classify(img, [box(1, 0, 10, 5), box(2, 8, 18, 14)])
    assert out.values[0, 0] == 1


def test_classify_overlap_tie_lowest_code():
    # equidistant means: |9-5| == |9-13|; the lower code wins
    img = one_band_image([9.0], 1, 1)
    out = classify(img, [box(2, 8, 18, 13), box(1, 0, 10, 5)])
    assert out.values[0, 0] == 1
    # a three-way tie, declared highest code first, with a nearer class
    # that does not contain the pixel
    img = one_band_image([9.0, 100.0], 2, 1)
    boxes = [box(7, 0, 20, 13), box(4, 0, 20, 5), box(5, 8, 12, 13), box(1, 10, 20, 9)]
    assert classify(img, boxes).values.tolist() == [[4.0, 0.0]]
    # a squared distance that overflows to inf never wins, even when it is
    # the only box holding the pixel: 1e300 is in both boxes of code 1 and 2
    img = one_band_image([1e300, 5.0, 9.0], 3, 1)
    boxes = [box(3, 0, 10, 13), box(1, -1e300, 1e300, -1e300), box(2, 0, 1e300, 5)]
    assert classify(img, boxes).values.tolist() == [[0.0, 2.0, 2.0]]
    img = one_band_image([1e300, -1e300], 2, 1)
    assert classify(img, [box(1, -1e300, 1e300, -1e300)]).values.tolist() == [[0.0, 1.0]]


def test_classify_nodata_propagates():
    img = one_band_image([-9999.0, 5.0], 2, 1)
    out = classify(img, [box(1, 0, 10, 5)])
    assert out.values[0, 0] == -9999.0
    assert out.values[0, 1] == 1


def test_classify_band_mismatch_errors():
    img = one_band_image([5.0], 1, 1)
    two_band_box = ClassBox(class_code=1, label="x", lows=(0, 0), highs=(1, 1),
                            means=(0.5, 0.5))
    with pytest.raises(ValueError, match="band"):
        classify(img, [two_band_box])


def test_classbox_validation():
    with pytest.raises(ValueError):
        ClassBox(class_code=1, label="bad", lows=(2.0,), highs=(1.0,), means=(1.5,))
    with pytest.raises(ValueError):
        ClassBox(class_code=1, label="bad", lows=(0.0,), highs=(1.0, 2.0), means=(0.5,))


@pytest.mark.parametrize("lows, highs", [((math.nan,), (1.0,)), ((0.0,), (math.nan,)),
                                          ((0.0, math.nan), (1.0, math.nan))])
def test_classbox_rejects_nan_bound(lows, highs):
    # "lo > hi" is False for NaN; such a box would silently hold no pixel
    with pytest.raises(ValueError, match=r"^class 1: lo > hi$"):
        ClassBox(class_code=1, label="a", lows=lows, highs=highs, means=(0.5,) * len(lows))


def synthetic_scene(seed=0):
    """Three classes with disjoint bounded spectra, plus the truth map.

    Class values are uniform within +/- 3 of centres 100 apart, so
    boxes trained with a generous k cover each class without ever
    reaching a neighbour.
    """
    rng = np.random.default_rng(seed)
    nrows = ncols = 20
    centres = {1: (100.0, 400.0), 2: (200.0, 500.0), 3: (300.0, 300.0)}
    truth = rng.integers(1, 4, size=(nrows, ncols))
    b1 = np.empty((nrows, ncols))
    b2 = np.empty((nrows, ncols))
    for code, (m1, m2) in centres.items():
        m = truth == code
        b1[m] = m1 + rng.uniform(-3.0, 3.0, m.sum())
        b2[m] = m2 + rng.uniform(-3.0, 3.0, m.sum())
    image = [
        Grid(ncols=ncols, nrows=nrows, xll=0, yll=0, cellsize=1, values=b1),
        Grid(ncols=ncols, nrows=nrows, xll=0, yll=0, cellsize=1, values=b2),
    ]
    return image, truth


def test_synthetic_disjoint_classes_fully_recovered():
    image, truth = synthetic_scene(seed=42)
    rng = np.random.default_rng(1)
    training = []
    for code in (1, 2, 3):
        rows, cols = np.nonzero(truth == code)
        pick = rng.choice(len(rows), size=12, replace=False)
        for idx in pick:
            x, y = image[0].cell_center(int(rows[idx]), int(cols[idx]))
            training.append((x, y, code))
    boxes = train_parallelepiped(image, training, k=8.0)
    out = classify(image, boxes)
    assert np.array_equal(out.values.astype(int), truth)


def test_classify_deterministic(monkeypatch):
    image, _ = synthetic_scene(seed=9)
    rng = np.random.default_rng(2)
    training = [
        (float(x), float(y), int(c))
        for x, y, c in zip(
            rng.uniform(0, 20, 30), rng.uniform(0, 20, 30), rng.integers(1, 4, 30)
        )
    ]
    boxes = train_parallelepiped(image, training, k=3.0)
    a = classify(image, boxes)
    b = classify(image, boxes)
    assert np.array_equal(a.values, b.values)
    for cells in (1, 50):  # blocks of one row, and of two
        monkeypatch.setattr(demqa.landcover, "_WRITE_CELLS", cells)
        assert classify(image, boxes) == a


def test_output_codes_in_declared_set():
    image, _ = synthetic_scene(seed=5)
    rng = np.random.default_rng(3)
    training = [
        (float(x), float(y), int(c))
        for x, y, c in zip(
            rng.uniform(0, 20, 40), rng.uniform(0, 20, 40), rng.integers(1, 4, 40)
        )
    ]
    boxes = train_parallelepiped(image, training, k=1.0)
    out = classify(image, boxes)
    allowed = {0, 1, 2, 3, out.nodata}
    assert set(np.unique(out.values)).issubset(allowed)


def test_class_code_limits_of_training_and_legend():
    top = 2**53  # float64 holds every integer up to here exactly
    text = f"x,y,class_code\n1,2,{top}\n3,4,{-top}\n"
    assert read_training_csv(io.StringIO(text)) == [(1.0, 2.0, top), (3.0, 4.0, -top)]
    assert read_legend_csv(io.StringIO(f"class_code,label\n0,none\n{top},far\n")) == {
        0: "none", top: "far"}
    for code in ("0", " -0 ", str(top + 1)):
        with pytest.raises(ParseError, match=r"^out-of-range class code .* \(line 2, column 3\)$"):
            read_training_csv(io.StringIO(f"x,y,class_code\n1,2,{code}\n"))
    with pytest.raises(ParseError, match=r"^out-of-range class code .* \(line 2, column 1\)$"):
        read_legend_csv(io.StringIO(f"class_code,label\n{-top - 1},far\n"))


def test_classify_rejects_the_nodata_code():
    band = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[1.0, 2.0], nodata=-5.0)
    box = ClassBox(class_code=-5, label="x", lows=(0.0,), highs=(3.0,), means=(1.5,))
    with pytest.raises(TrainingPointError, match="^class code -5 is the image's nodata value$"):
        classify([band], [box])


def test_read_training_and_legend_csv():
    training = read_training_csv(io.StringIO("x,y,class_code\n1.5,2.5,3\n"))
    assert training == [(1.5, 2.5, 3)]
    legend = read_legend_csv(io.StringIO("class_code,label\n1,bare land\n2,built-up\n"))
    assert legend == {1: "bare land", 2: "built-up"}
    with pytest.raises(ParseError):
        read_training_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(ParseError):
        read_legend_csv(io.StringIO("class_code,label\nx,oops\n"))
