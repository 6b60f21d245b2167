"""Power graphs of the two-generator family <s, r>: matrices, spectra, dimensions."""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    GroupElement,
    GroupParams,
    ParameterError,
    cyclic_subgroup,
    multiply,
)
from .graphs import (  # noqa: F401
    Graph,
    PartitionClasses,
    TwinQuotient,
    build_power_graph,
    classify_partition,
    twin_classes,
)
from .matrices import (  # noqa: F401
    a_alpha,
    adjacency,
    degree_diag,
    distance_matrix,
    rd_alpha,
    reciprocal_distance,
    reciprocal_transmission,
)
from .detour import detour_matrix  # noqa: F401
from .spectra import (  # noqa: F401
    Spectrum,
    a_alpha_closed_form,
    rd_alpha_closed_form,
    solve_quotient,
    sym_eigenvalues,
    twin_eigenvalues,
)
from .metric import (  # noqa: F401
    metric_dimension,
    min_vertex_cover,
    mmd_graph,
    resolve_check,
    strong_metric_dimension,
    twin_lower_bound,
)
from .sequences import dds, detour_profile  # noqa: F401
