"""Canonical feature catalog: 107 names in fixed order with formula notes.

Family order is first-order, shape, GLCM, GLRLM, GLSZM, GLDM, NGTDM;
names sort alphabetically within each family. Column names join family
and feature with an underscore (e.g. ``firstorder_Mean``). This order is
the schema of every feature CSV and must never be reordered.
"""

FIRSTORDER = (
    ("10Percentile", "10th percentile of raw intensities (linear interpolation)"),
    ("90Percentile", "90th percentile of raw intensities (linear interpolation)"),
    ("Energy", "sum of squared raw intensities"),
    ("Entropy", "-sum p*log2(p) over the discretized-level histogram; 0*log0 = 0"),
    ("InterquartileRange", "P75 - P25"),
    ("Kurtosis", "m4/m2^2 (raw, not excess); 0 when m2 = 0"),
    ("Maximum", "largest raw intensity"),
    ("Mean", "arithmetic mean of raw intensities"),
    ("MeanAbsoluteDeviation", "mean |x - mean|"),
    ("Median", "median of raw intensities"),
    ("Minimum", "smallest raw intensity"),
    ("Range", "Maximum - Minimum"),
    ("RobustMeanAbsoluteDeviation",
     "mean absolute deviation of values within [P10, P90] from their own mean"),
    ("Skewness", "m3/m2^1.5; 0 when m2 = 0"),
    ("StandardDeviation", "sqrt of population variance"),
    ("TotalEnergy", "Energy times voxel volume (mm^3)"),
    ("Uniformity", "sum p^2 over the discretized-level histogram"),
    ("Variance", "population (biased) variance"),
)

SHAPE = (
    ("Elongation", "sqrt(lambda2/lambda1) of voxel-center covariance eigenvalues; 0 if lambda1 = 0"),
    ("Flatness", "sqrt(lambda3/lambda1); 0 if lambda1 = 0"),
    ("LeastAxisLength", "4*sqrt(lambda3)"),
    ("MajorAxisLength", "4*sqrt(lambda1)"),
    ("Maximum2DDiameterXY", "largest in-plane center distance within any fixed-z slice (mm)"),
    ("Maximum2DDiameterXZ", "largest in-plane center distance within any fixed-y slice (mm)"),
    ("Maximum2DDiameterYZ", "largest in-plane center distance within any fixed-x slice (mm)"),
    ("Maximum3DDiameter", "largest pairwise distance between surface-voxel centers (mm)"),
    ("MeshVolume", "marching-cubes 0.5-isosurface volume |sum a.(b x c)|/6, summed per cube case (mm^3)"),
    ("MinorAxisLength", "4*sqrt(lambda2)"),
    ("Sphericity", "(36*pi*V^2)^(1/3)/A with mesh volume V and surface area A"),
    ("SurfaceArea", "sum of mesh triangle areas, count x area per cube case (mm^2)"),
    ("SurfaceVolumeRatio", "SurfaceArea / MeshVolume"),
    ("VoxelVolume", "voxel count times voxel volume (mm^3)"),
)

GLCM = (
    ("Autocorrelation", "sum_ij i*j*p(i,j)"),
    ("ClusterProminence", "sum_ij (i+j-2mu)^4 p(i,j)"),
    ("ClusterShade", "sum_ij (i+j-2mu)^3 p(i,j)"),
    ("ClusterTendency", "sum_ij (i+j-2mu)^2 p(i,j)"),
    ("Contrast", "sum_ij (i-j)^2 p(i,j)"),
    ("Correlation", "(sum_ij i*j*p - mu^2)/sigma^2; 1 when sigma = 0"),
    ("DifferenceAverage", "sum_k k*p_diff(k)"),
    ("DifferenceEntropy", "-sum_k p_diff log2 p_diff"),
    ("DifferenceVariance", "sum_k (k - DifferenceAverage)^2 p_diff(k)"),
    ("Id", "sum_k p_diff(k)/(1+k)"),
    ("Idm", "sum_k p_diff(k)/(1+k^2)"),
    ("Idmn", "sum_k p_diff(k)/(1+k^2/Ng^2)"),
    ("Idn", "sum_k p_diff(k)/(1+k/Ng)"),
    ("Imc1", "(HXY - HXY1)/max(HX, HY); 0 when max entropy = 0"),
    ("Imc2", "sqrt(1 - exp(-2(HXY2 - HXY))), clamped at 0"),
    ("InverseVariance", "sum_{k>=1} p_diff(k)/k^2"),
    ("JointAverage", "mu = sum_ij i*p(i,j)"),
    ("JointEnergy", "sum_ij p(i,j)^2"),
    ("JointEntropy", "-sum_ij p log2 p"),
    ("MCC", "sqrt of second-largest eigenvalue of Q(i,j) = sum_k p(i,k)p(j,k)/(px(i)py(k)), the second-largest squared eigenvalue of p(i,j)/sqrt(px(i)px(j)); 1 when under two levels present"),
    ("MaximumProbability", "max_ij p(i,j)"),
    ("SumAverage", "sum_k k*p_sum(k)"),
    ("SumEntropy", "-sum_k p_sum log2 p_sum"),
    ("SumSquares", "sum_ij (i-mu)^2 p(i,j)"),
)

GLRLM = (
    ("GrayLevelNonUniformity", "sum_i (sum_j R)^2 / Nr"),
    ("GrayLevelNonUniformityNormalized", "sum_i (sum_j R)^2 / Nr^2"),
    ("GrayLevelVariance", "sum_ij (i - mu_i)^2 p(i,j)"),
    ("HighGrayLevelRunEmphasis", "sum_ij R*i^2 / Nr"),
    ("LongRunEmphasis", "sum_ij R*j^2 / Nr"),
    ("LongRunHighGrayLevelEmphasis", "sum_ij R*i^2*j^2 / Nr"),
    ("LongRunLowGrayLevelEmphasis", "sum_ij R*j^2/i^2 / Nr"),
    ("LowGrayLevelRunEmphasis", "sum_ij R/i^2 / Nr"),
    ("RunEntropy", "-sum_ij p log2 p"),
    ("RunLengthNonUniformity", "sum_j (sum_i R)^2 / Nr"),
    ("RunLengthNonUniformityNormalized", "sum_j (sum_i R)^2 / Nr^2"),
    ("RunPercentage", "Nr / Np"),
    ("RunVariance", "sum_ij (j - mu_j)^2 p(i,j)"),
    ("ShortRunEmphasis", "sum_ij R/j^2 / Nr"),
    ("ShortRunHighGrayLevelEmphasis", "sum_ij R*i^2/j^2 / Nr"),
    ("ShortRunLowGrayLevelEmphasis", "sum_ij R/(i^2*j^2) / Nr"),
)

GLSZM = (
    ("GrayLevelNonUniformity", "sum_i (sum_s S)^2 / Nz"),
    ("GrayLevelNonUniformityNormalized", "sum_i (sum_s S)^2 / Nz^2"),
    ("GrayLevelVariance", "sum_is (i - mu_i)^2 p(i,s)"),
    ("HighGrayLevelZoneEmphasis", "sum_is S*i^2 / Nz"),
    ("LargeAreaEmphasis", "sum_is S*s^2 / Nz"),
    ("LargeAreaHighGrayLevelEmphasis", "sum_is S*i^2*s^2 / Nz"),
    ("LargeAreaLowGrayLevelEmphasis", "sum_is S*s^2/i^2 / Nz"),
    ("LowGrayLevelZoneEmphasis", "sum_is S/i^2 / Nz"),
    ("SizeZoneNonUniformity", "sum_s (sum_i S)^2 / Nz"),
    ("SizeZoneNonUniformityNormalized", "sum_s (sum_i S)^2 / Nz^2"),
    ("SmallAreaEmphasis", "sum_is S/s^2 / Nz"),
    ("SmallAreaHighGrayLevelEmphasis", "sum_is S*i^2/s^2 / Nz"),
    ("SmallAreaLowGrayLevelEmphasis", "sum_is S/(i^2*s^2) / Nz"),
    ("ZoneEntropy", "-sum_is p log2 p"),
    ("ZonePercentage", "Nz / Np"),
    ("ZoneVariance", "sum_is (s - mu_s)^2 p(i,s)"),
)

GLDM = (
    ("DependenceEntropy", "-sum_ij p log2 p"),
    ("DependenceNonUniformity", "sum_j (sum_i D)^2 / Nz"),
    ("DependenceNonUniformityNormalized", "sum_j (sum_i D)^2 / Nz^2"),
    ("DependenceVariance", "sum_ij (j - mu_j)^2 p(i,j)"),
    ("GrayLevelNonUniformity", "sum_i (sum_j D)^2 / Nz"),
    ("GrayLevelVariance", "sum_ij (i - mu_i)^2 p(i,j)"),
    ("HighGrayLevelEmphasis", "sum_ij D*i^2 / Nz"),
    ("LargeDependenceEmphasis", "sum_ij D*j^2 / Nz"),
    ("LargeDependenceHighGrayLevelEmphasis", "sum_ij D*i^2*j^2 / Nz"),
    ("LargeDependenceLowGrayLevelEmphasis", "sum_ij D*j^2/i^2 / Nz"),
    ("LowGrayLevelEmphasis", "sum_ij D/i^2 / Nz"),
    ("SmallDependenceEmphasis", "sum_ij D/j^2 / Nz"),
    ("SmallDependenceHighGrayLevelEmphasis", "sum_ij D*i^2/j^2 / Nz"),
    ("SmallDependenceLowGrayLevelEmphasis", "sum_ij D/(i^2*j^2) / Nz"),
)

NGTDM = (
    ("Busyness", "sum p_i*s_i / sum |i*p_i - j*p_j|; 0 when denominator = 0"),
    ("Coarseness", "1 / sum p_i*s_i; 1e6 when denominator = 0"),
    ("Complexity", "(1/Nvp) sum |i-j| (p_i s_i + p_j s_j)/(p_i + p_j)"),
    ("Contrast", "[sum p_i p_j (i-j)^2 / (Ngp(Ngp-1))] * [sum s_i / Nvp]; 0 when Ngp <= 1"),
    ("Strength", "sum (p_i + p_j)(i-j)^2 / sum s_i; 0 when denominator = 0"),
)

FAMILIES = (
    ("firstorder", FIRSTORDER),
    ("shape", SHAPE),
    ("glcm", GLCM),
    ("glrlm", GLRLM),
    ("glszm", GLSZM),
    ("gldm", GLDM),
    ("ngtdm", NGTDM),
)

FEATURE_NAMES = tuple(
    f"{family}_{name}" for family, entries in FAMILIES for name, _ in entries
)

FAMILY_COUNTS = {family: len(entries) for family, entries in FAMILIES}

assert len(FEATURE_NAMES) == 107
assert len(set(FEATURE_NAMES)) == 107
assert FAMILY_COUNTS == {
    "firstorder": 18, "shape": 14, "glcm": 24,
    "glrlm": 16, "glszm": 16, "gldm": 14, "ngtdm": 5,
}


def catalog_text() -> str:
    """Human-readable schema listing: index, column name, formula note.

    In texture formulas i, j index gray levels (1..Ng), k indexes level
    sums/differences, s zone sizes, and j in GLDM the dependence count plus
    one (an isolated voxel has dependence 0, weighted as j = 1). Degenerate
    0/0 descriptors substitute 0, correlation-like descriptors substitute 1,
    and the NGTDM coarseness guard substitutes 1e6, so every feature is
    finite on any non-empty region.
    """
    lines = ["# Feature catalog: 107 columns in canonical order", ""]
    idx = 0
    for family, entries in FAMILIES:
        lines.append(f"## {family} ({len(entries)})")
        for name, note in entries:
            lines.append(f"{idx:3d}  {family}_{name}  ::  {note}")
            idx += 1
        lines.append("")
    return "\n".join(lines)
