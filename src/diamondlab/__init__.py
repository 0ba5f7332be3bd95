"""Exact verification laboratory for free spaces over diamond graphs.

Finite truncations of the recursive diamond construction, exact
rational transport norms with dual certificates, derivation-game
transcripts with an independent verifier, and the summing-metric
decomposition checks, all behind deterministic seeds and byte-stable
file formats.
"""

from .decomposition import (Cover, LimitDecomposition, SummandPartition,
                            build_cover, check_partition, cover_partition,
                            decompose_limit, ell1_additivity_check,
                            equivalence_constants, projection_identity_check,
                            summing_metric)
from .derivation import (ADVERSARY_KINDS, MUTATION_KINDS, AdversaryConfig,
                         GameNode, GameTranscript, Move, WeakNeighborhood,
                         adversary_family, collect_vectors, midpoint_lift,
                         mutate_transcript, prover_certify, prover_escape,
                         relative_derivation_oracle, spine_points,
                         verify_transcript, walk_nodes)
from .diamond import (DEFAULT_BUDGET, DiamondLandmarks, DiamondSpec,
                      PointAddress, build, build_cached, estimate_points,
                      finest_edges, parse_address, shortest_path_closure)
from .errors import (BudgetExceededError, CertificateError, FormatError,
                     InsufficientBranchingError)
from .freespace import (FreeVector, TransportCertificate, clear_norm_caches,
                        free_norm, molecule, norm_statistics, norm_value,
                        point_mass, verify_certificate)
from .lipschitz import (LipschitzFunction, distance_functional, glue_poles,
                        is_lipschitz_at_most, lip_constant, mcshane_extend,
                        pull_to_copy)
from .metric import MetricAxiomError, MetricSpace
from .ordinal import (OMEGA, ONE, ZERO, OrdinalNotation, OrdinalParseError,
                      classify, compare, format_ordinal,
                      fundamental_sequence, parse_ordinal)
from .sampling import Sampler
from .suite import (CHECKS, CheckResult, SuiteConfig, SuiteReport,
                    TOOL_VERSION, read_report, run_check, run_suite,
                    write_report)

__version__ = TOOL_VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
