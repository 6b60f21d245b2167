"""Power graphs of the two-generator family <s, r>: matrices, spectra, dimensions."""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    CayleyTable,
    GroupElement,
    GroupParams,
    ParameterError,
    cyclic_subgroup,
    elements,
    inverse,
    multiply,
    order,
    power,
)
from .graphs import (  # noqa: F401
    Graph,
    PartitionClasses,
    TwinClass,
    TwinQuotient,
    build_power_graph,
    classify_partition,
    twin_classes,
    verify_decomposition,
)
from .matrices import (  # noqa: F401
    a_alpha,
    adjacency,
    degree_diag,
    distance_matrix,
    laplacian,
    rd_alpha,
    reciprocal_distance,
    reciprocal_transmission,
    signless_laplacian,
)
from .detour import detour_matrix  # noqa: F401
from .spectra import (  # noqa: F401
    BlockForm,
    Spectrum,
    a_alpha_closed_form,
    assemble_block_matrix,
    block_reduce,
    compare_spectra,
    rd_alpha_closed_form,
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
from .sequences import dds, dds_detour, detour_profile, eccentricity_profile  # noqa: F401
