"""k-skyband machinery (paper Sections 3.1 and 5).

The key insight of the paper: the records that will appear in *some*
future top-k result are exactly the k-skyband of the valid records in
the 2-dimensional score–time space, regardless of the data
dimensionality. :mod:`repro.skyband.skyband` implements the
dominance-counter skyband SMA maintains per query;
:mod:`repro.skyband.skyline` provides a general block-nested-loop
k-skyband used by tests to validate the reduction and by analysis
tooling.
"""

from repro.skyband.skyband import ScoreTimeSkyband
from repro.skyband.skyline import dominates, k_skyband, skyline

__all__ = [
    "ScoreTimeSkyband",
    "dominates",
    "k_skyband",
    "skyline",
]
