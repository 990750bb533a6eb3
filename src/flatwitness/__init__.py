"""Numerical library for flatness certificates over function algebras.

Subpackages cover suffix-sum machinery for square-summable sequences,
pointwise witness certificates for sampled linear relations,
two-generator ideal constructions, decidable ultrafilter-limit fragments,
weight factorizations over shell-layered spaces, a boundary-grid Hardy
core with outer-function synthesis and subspace projections, and the
disk/half-plane transfer of factorizations.
"""

__version__ = "0.1.0"
