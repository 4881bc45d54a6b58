"""Point-counting statistics for circular and Gaussian beta ensembles.

Samples the Circular beta Ensemble through its Verblunsky coefficients and
the Gaussian beta Ensemble through its tridiagonal matrix model, counts
points in arcs and intervals by phase winding and Sturm pivots, and runs
reproducible Monte Carlo variance scans against the known logarithmic
growth of the number variance.
"""

__version__ = "0.1.0"
