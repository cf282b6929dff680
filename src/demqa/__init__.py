"""DEM vertical accuracy assessment against ground control points.

Library + CLI covering the full pipeline: coincident-height extraction,
validity and Tukey outlier screening, per-land-cover SD/RMSE summaries,
Global Moran's I with analytic and permutation significance, slope and
aspect derivatives, correlation of errors with terrain, and one-way
ANOVA across land-cover strata.

The public functions are imported from the submodules that define them,
``raster``, ``sample``, ``screen``, ``stats``, ``spatial``, ``terrain``,
``landcover``, ``synth`` and ``errors``: ``import demqa`` loads none.
"""

__version__ = "0.1.0"
