"""Planar ion crystals in a hybrid DC + optical-cavity trap.

Equilibrium structures, normal modes, the 2D-3D transition, configuration
barriers, phonon-mediated spin couplings, and scattering-limited lifetimes
for crystals confined radially by DC electrodes and axially by the AC Stark
shift of an intracavity standing wave.
"""

import os
import sys
import warnings

# BLAS runs on one thread unless the environment says otherwise: the search
# makes many small BLAS calls, which extra threads only slow down, and the
# thread count can change the last bits of an eigensolve, so the data files
# of a (config, seed) are byte-identical only at a fixed count. OpenBLAS and
# OpenMP read their pool sizes once, when numpy loads, so this runs before
# any submodule imports numpy; forked workers inherit the pool size.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(var in os.environ for var in _THREAD_VARS):
    warnings.warn(
        "numpy was imported before cavitrap with OPENBLAS_NUM_THREADS unset, so "
        "BLAS may run on several threads, which is slower and can change the "
        "data files; import cavitrap before numpy, or set OPENBLAS_NUM_THREADS=1",
        UserWarning,
    )
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .core import (  # noqa: E402
    CONST,
    ANTINODE_COS2,
    NODE_SIN2,
    AtomicLine,
    IonSpecies,
    OpticalTrapConfig,
    PhysicalConstants,
    TrapConfig,
    characteristic_length,
    depth_for_aspect,
    effective_frequencies,
    intensity_for_depth,
    intensity_from_power,
    load_species,
    make_trap,
    power_for_intensity,
    stark_coefficient,
    trap_depth,
    yb171,
)
from .errors import (  # noqa: E402
    AntiTrappedError,
    BracketError,
    CavitrapError,
    ConvergenceError,
    DomainError,
    FitError,
    ResonanceError,
    SamplingError,
    SingularConfigurationError,
    ValidationError,
)
from .potential import (  # noqa: E402
    EnergyBreakdown,
    coulomb_z_block,
    gradient,
    hessian,
    optical_z_curvature,
    planar_energy,
    planar_energy_batch,
    planar_energy_gradient,
    planar_gradient,
    planar_hessian,
    total_energy,
)
from .equilibrium import (  # noqa: E402
    METASTABLE,
    STABLE,
    EquilibriumResult,
    align_configurations,
    crystal_metrics,
    find_equilibria,
    ring_configuration,
)
from .modes import (  # noqa: E402
    IN_PLANE,
    OUT_OF_PLANE,
    ModeSpectrum,
    label_modes,
    normal_modes,
)
from .transition import (  # noqa: E402
    PowerLawFit,
    TransitionPoint,
    alpha_tr_uniform,
    find_alpha_tr,
    fit_power_law,
    transition_scan,
    waist_sweep,
)
from .barrier import (  # noqa: E402
    BarrierPath,
    BarrierWalkParams,
    barrier_pair,
    optimize_path,
    propose_step,
)
from .spin import (  # noqa: E402
    SpinDriveConfig,
    SpinGraph,
    beta_sweep,
    compute_jij,
    fit_beta,
    uniform_drive,
)
from .lifetime import (  # noqa: E402
    NON_LANGEVIN_HEATING_BOUND,
    LifetimeEstimate,
    langevin_rate,
    lifetime_estimate,
    photon_recoil,
    recoil_heating,
    scattering_rates,
    trapping_lifetime,
)
