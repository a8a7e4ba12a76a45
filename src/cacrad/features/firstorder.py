"""First-order intensity statistics over the raw masked values.

Entropy and Uniformity are the only two computed on the discretized-level
histogram; everything else uses raw values. Moments are population
(biased) throughout.
"""

import numpy as np

from ..preprocess import DiscretizedRoi, MaskedRoi


def first_order(roi: MaskedRoi, disc: DiscretizedRoi) -> dict:
    x = roi.values
    n = x.size
    mean = float(x.mean())
    dev = x - mean
    dev2 = dev * dev  # higher powers as products, not through libm pow
    m2 = float(np.mean(dev2))
    # skewness/kurtosis are 0/0 on constant input; substitute 0
    if m2 > 0.0:
        skew = float(np.mean(dev2 * dev)) / m2 ** 1.5
        kurt = float(np.mean(dev2 * dev2)) / m2 ** 2
    else:
        skew = 0.0
        kurt = 0.0
    p10, p25, p75, p90 = (float(v) for v in np.percentile(x, [10, 25, 75, 90]))
    robust = x[(x >= p10) & (x <= p90)]
    if robust.size:
        rmad = float(np.mean(np.abs(robust - robust.mean())))
    else:
        rmad = 0.0
    energy = float(np.sum(x ** 2))

    # the present levels' counts, ascending, with nothing of size ng
    # allocated: too many levels fail at the texture matrices' bound
    p = np.unique(disc.levels, return_counts=True)[1] / n
    entropy = float(-np.sum(p * np.log2(p))) + 0.0  # +0.0 avoids -0.0
    uniformity = float(np.sum(p ** 2))

    return {
        "10Percentile": p10,
        "90Percentile": p90,
        "Energy": energy,
        "Entropy": entropy,
        "InterquartileRange": p75 - p25,
        "Kurtosis": kurt,
        "Maximum": float(x.max()),
        "Mean": mean,
        "MeanAbsoluteDeviation": float(np.mean(np.abs(dev))),
        "Median": float(np.median(x)),
        "Minimum": float(x.min()),
        "Range": float(x.max() - x.min()),
        "RobustMeanAbsoluteDeviation": rmad,
        "Skewness": skew,
        "StandardDeviation": float(np.sqrt(m2)),
        "TotalEnergy": energy * roi.spacing[0] * roi.spacing[1] * roi.spacing[2],
        "Uniformity": uniformity,
        "Variance": m2,
    }
