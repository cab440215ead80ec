"""Sector-resolved exact diagonalization of the ferromagnetic anisotropic
spin chain with domain-wall (kink) boundary fields."""

from .halfint import HalfInt, as_half
from .basis import (
    SectorBasis,
    reachable_sectors,
    sector_dimension,
)
from .hamiltonian import (
    SectorOperator,
    VARIANTS,
    build_sector_operator,
    hopping_structure,
    ising_diagonal,
)
from .ising import (
    DegeneratePair,
    EdgeSectorError,
    GroundDescriptor,
    KinkExcitation,
    band_edge_multiplicity_lower_bound,
    degenerate_pairs,
    excitation_config,
    excitation_energy,
    excitation_sets,
    ground_config,
    ground_descriptor,
    isolation_distance,
    localized_excitations,
    predicted_low_spectrum,
)
from .groundstate import (
    SectorVector,
    groundstate_vector,
    magnetization_profile,
    profile_from_amplitudes,
    q_from_delta,
)
from .certificates import (
    Certificate,
    certificate_constants,
    local_inequality_margin,
    series_margin,
)
from .eigensolver import (
    LanczosError,
    SpectrumRecord,
    dense_spectrum,
    group_multiplicities,
    lanczos_lowest,
    solve_lowest,
)
from .sweep import (
    SweepPlan,
    profile_table,
    rows_to_csv,
    run_sweep,
    sweep_to_json,
)
from .checks import IsingCheckReport, SectorCheck, verify_ising_theorems

__version__ = "0.1.0"
