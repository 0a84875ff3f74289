"""oppwalk: latency analysis for uniform random-walk (stateless
opportunistic) routing on cycle/torus families and wireless topologies."""

from .errors import (
    DegenerateInputError,
    DisconnectedGraphError,
    EstimationError,
    ParameterError,
    ValidationError,
)
from .graphs import (
    Graph,
    TorusSpec,
    build_cycle,
    build_torus,
    cartesian_product,
    complete_graph,
    load_edge_list,
    save_edge_list,
)
from .latency import (
    HittingMatrix,
    cycle_latency_bounds,
    expected_packet_delay,
    hitting_times,
    hitting_times_linear_system,
    latency_bounds,
    mean_latency_cycle,
    mean_latency_pinv,
    mean_latency_spectral,
    mean_latency_torus,
    torus_latency_bounds,
)
from .spectral import (
    Spectrum,
    algebraic_connectivity,
    circulant_eigenvalues,
    cycle_laplacian_spectrum,
    laplacian_spectrum,
    normalized_laplacian,
    pinv_trace,
    symmetric_eigendecomposition,
    torus_laplacian_spectrum,
)
from .walker import (
    WalkConfig,
    WalkEstimate,
    estimate_hitting,
    estimate_mean_latency,
    simulate_walk,
)
from .wireless import (
    Placement,
    WirelessConfig,
    WirelessTopology,
    build_wireless_graph,
    generate_topology,
    generate_topologies,
    place_nodes,
    reference_distance,
)

__version__ = "0.1.0"
