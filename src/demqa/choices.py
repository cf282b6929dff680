"""Legal values of the options, in a module that imports nothing.

The command line checks its options against these before it imports the
modules that use them, so a command compiles only the modules it runs.
Each library module imports its own values from here and re-exports them.
"""

EXTRACTION_METHODS = ("nearest", "bilinear")  # sample.extract_coincident
FILTER_FIELDS = ("delta_h", "h_dem")  # screen.tukey_filter
WEIGHT_SCHEMES = ("inverse_distance", "fixed_band")  # spatial.build_weights
ASSUMPTIONS = ("randomization", "normality")  # spatial.morans_significance
# More replicates than a pseudo p-value needs (999 is usual); each
# replicate builds its own seed stream, in the worker that draws it
# (spatial.permutation_test).
MAX_PERMUTATIONS = 1_000_000
SCENE_KINDS = ("plane", "checkerboard", "smoothed_noise")  # synth.make_plane and the rest
