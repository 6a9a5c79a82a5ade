"""Exact-arithmetic toolkit for Block type graded Lie algebras.

The package's API is its submodules; import from them directly:

    scalars        exact rationals and sparse multivariate polynomials
    engine         elements, bracket rules, grid identity tests, closures
    novikov        Witt-type Novikov products and their affinization
    block          the centrally extended two-parameter Block algebra
    hweight        quasifinite highest-weight classification
    intermediate   the three intermediate-series module families
    cli            batch job runner with deterministic reports
"""

__version__ = "0.1.0"
