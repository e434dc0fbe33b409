"""Coefficient reconstruction for 2D penetrable scatterers from multifrequency
backscatter Cauchy data.

The forward path simulates the scattered field of a compactly supported
coefficient with a volume-integral solver; the inverse path transforms the
measured traces, builds a data carrier, and minimizes an exponentially
weighted least-squares functional over a truncated wavenumber basis with
gradient descent and in-loop re-solves.
"""

from .basis import BasisSet, KGrid, build_basis, project
from .cylinder import disk_total_field
from .fieldtransform import (
    NearZeroTotalField,
    cauchy_to_v_data,
    log_to_coeffs,
    recover_coefficient,
    smooth_traces,
    total_to_log,
)
from .forward import (
    CauchyData,
    Coefficient,
    Disk,
    Grid2D,
    IncidentWave,
    Rectangle,
    add_noise,
    rasterize,
    solve_forward,
    solve_forward_multi,
    trace_cauchy,
)
from .carrier import build_carrier, build_cutoff
from .objective import evaluate_and_gradient
from .inversion import (
    InversionConfig,
    InversionResult,
    IterationRecord,
    ablation_no_weight,
    run_inversion,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    config_from_dict,
    get_scenario,
    load_scenario,
    simulate_scenario,
)
from .io import (
    read_cauchy,
    read_coefficient,
    read_history,
    write_cauchy,
    write_coefficient,
    write_history,
    write_manifest,
)
from .validate import run_all_checks

__version__ = "0.1.0"
