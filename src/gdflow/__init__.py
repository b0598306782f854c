"""Gradient-discretisation solver for coupled miscible displacement in porous media.

The package provides two concrete discretisations (a node-centred
finite-difference scheme on Cartesian grids and a mass-lumped P1 scheme on
triangulations), the coupled pressure/transport time loop with centred,
upstream and vanishing-diffusion convection variants, and the machinery to
reproduce mesh-convergence error tables against an analytical radial
solution.
"""

from .mesh import CartesianGrid, TriangularMesh, build_cartesian, \
    build_structured_triangulation, build_dual, load_mesh
from .gd import GradientDiscretisation, scheme_a, scheme_b
from .physics import MobilityTensor, DispersionParams, \
    AnalyticalRadialSolution, viscosity, truncate, psi
from .sim import RunConfig, ErrorReport, run_coupled, error_norms, \
    convergence_suite

__all__ = [
    "CartesianGrid", "TriangularMesh", "build_cartesian",
    "build_structured_triangulation", "build_dual", "load_mesh",
    "GradientDiscretisation", "scheme_a", "scheme_b",
    "MobilityTensor", "DispersionParams",
    "AnalyticalRadialSolution", "viscosity", "truncate", "psi",
    "RunConfig", "ErrorReport", "run_coupled", "error_norms",
    "convergence_suite",
]
