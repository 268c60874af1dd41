"""fracfem: 2D mixed finite elements for frictional contact on fractured media.

Displacements and contact tractions (Lagrange multipliers) are solved
together in one saddle-point system; fracture faces carry stick/slip/open
states driven by Karush-Kuhn-Tucker and Mohr-Coulomb conditions, updated by
a monolithic active-set loop.  Crossing fractures are handled through
duplicated intersection nodes and diagonal crossing pairs.
"""

from .contact import (
    ContactBlocks,
    FrictionParams,
    PairKinematics,
    PairState,
    StateKind,
    assemble_contact_blocks,
    contact_residuals,
    mohr_coulomb_tau_c,
    pair_jumps,
    pair_kinematics,
)
from .config import RunConfig, build_mesh, parse_config, save_config, serialize_config
from .elasticity import (
    BoundaryCondition,
    ConfigError,
    MaterialParams,
    assemble_loads,
    assemble_stiffness,
    plane_strain_D,
    symmetric_product,
)
from .mesh import (
    ContactPair,
    FracturePath,
    FractureSpec,
    Mesh,
    build_contact_pairs,
    generate_rect_mesh,
    load_mesh,
    save_mesh,
    split_fractures,
)
from .oracles import (
    InclinedCrackCase,
    ProfileError,
    constant_slip_reference,
    inclined_crack_slip,
    inclined_crack_traction,
    profile_error,
    sif_ratio,
    sneddon_opening,
)
from .solver import SolutionState, SolverConfig, run_load_steps

__version__ = "0.1.0"
