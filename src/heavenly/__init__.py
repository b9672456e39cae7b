"""Exact-arithmetic verification toolkit for heavenly structures.

Scalar fields are rational-function expressions over chart coordinates,
evaluated by truncated Taylor (jet) arithmetic so that derivative residuals
are exact rationals.  On top of that sit the second/first potential
residuals, null tetrads and curvature, the recursion operator and its chains,
spectral-parameter series and the residue transform, the extended flow
hierarchy, and the boundary symplectic pairing.

The API lives in the submodules (``heavenly.catalog``, ``heavenly.jetcore``,
``heavenly.tetrads``, ...); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
