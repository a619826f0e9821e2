"""Certified transversality bounds and SRB-measure experiments for
solenoidal skew products of Weierstrass type."""

__version__ = "0.1.0"

from .interval import Interval
from .series import (
    SystemParams,
    TrigPoly,
    adding_machine,
    classical_phi,
    classical_psi,
    eval_S,
)
from .certifier import (
    CertTask,
    Certificate,
    PairGraph,
    certify_pair,
    delta_max,
    tangency_graph,
    theta_bound,
)
from .sigma import Verdict, certify_main, sigma_upper, solve_alpha, solve_t
from .measures import (
    AtomicMeasure,
    FiberAffine,
    corr_sq_norm,
    fiber_affine,
    i_r_table,
    local_dim_regress,
    sample_mx,
    srb_sample,
    vertical_scaling_check,
)
from .boxdim import GraphSample, box_count_dim, graph_mu_local_dim, sample_graph, theoretical_D
