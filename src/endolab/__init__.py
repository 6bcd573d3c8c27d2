"""Computational laboratory for the dynamics of polynomial endomorphisms
of C^n: periodic-point classification, Julia-set approximation along
independent characterizations, combinatorial chain-recurrence (Morse)
decompositions, and minimal-norm jet-interpolation perturbations."""

__version__ = "0.1.0"

from .maps import (
    EntireNode,
    Jet,
    MapOverflowError,
    PolyMap,
    Window,
    escape_radius,
)
from .periodic import (
    Cycle,
    classify,
    eigenvalues,
    find_periodic,
    hyperbolicity_report,
)
from .orbits import Orbit, orbit
from .julia import (
    EscapeGrid,
    PointCloud,
    boundary_extract,
    escape_grid,
    hausdorff,
    repeller_cloud,
)
from .conley import (
    AttractorRecord,
    BoxGraph,
    BoxGrid,
    MorseGraph,
    attractors,
    build_box_map,
    hurley_report,
    lyapunov,
    morse_graph,
)
from .perturb import (
    Correction,
    InfeasibleError,
    JetConstraint,
    close_orbit,
    escaping_construction,
    hakim_experiment,
    hakim_map,
    interpolate_correction,
    make_periodic_point,
    random_perturbation,
)
