"""Gradient-discretisation solver for coupled miscible displacement in porous media.

The package provides two concrete discretisations (a node-centred
finite-difference scheme on Cartesian grids and a mass-lumped P1 scheme on
triangulations), the coupled pressure/transport time loop with centred,
upstream and vanishing-diffusion convection variants, and the machinery to
reproduce mesh-convergence error tables against an analytical radial
solution.
"""

from .mesh import CartesianGrid, TriangularMesh, DualMesh, build_cartesian, \
    build_structured_triangulation, build_dual, load_mesh, save_mesh
from .gd import GradientDiscretisation, scheme_a, scheme_b
from .physics import ViscosityModel, MobilityTensor, DispersionParams, \
    SourceModel, AnalyticalRadialSolution, viscosity, truncate, psi
from .sim import RunConfig, ErrorReport, run_coupled, error_norms, \
    convergence_suite

__all__ = [
    "CartesianGrid", "TriangularMesh", "DualMesh", "build_cartesian",
    "build_structured_triangulation", "build_dual", "load_mesh", "save_mesh",
    "GradientDiscretisation", "scheme_a", "scheme_b",
    "ViscosityModel", "MobilityTensor", "DispersionParams", "SourceModel",
    "AnalyticalRadialSolution", "viscosity", "truncate", "psi",
    "RunConfig", "ErrorReport", "run_coupled", "error_norms",
    "convergence_suite",
]
