"""Quantitative MR fingerprinting toolkit: EPG dictionary simulation,
temporal subspace learning, TV-regularized iterative reconstruction, and
neural or matching-based parameter inference."""

from .epg import (
    Dictionary,
    GridRange,
    GridSpec,
    SequenceSchedule,
    build_dictionary,
    default_schedule,
    simulate_fingerprints,
)
from .forward_model import (
    CoilMaps,
    KSpaceData,
    SamplingPattern,
    adjoint,
    forward,
    make_coil_maps,
    make_vd_cartesian_masks,
)
from .inference import MrfNet, TrainConfig, dictionary_match, infer, make_training_set, train
from .phantom import GroundTruth, make_phantom, score_maps, synthesize_timeseries
from .solver import SolverConfig, SolveTrace, solve
from .subspace import SubspaceBasis, learn_subspace, phase_align, project
from .tvprox import TvConfig, tv_norm, tv_prox, tv_prox_stack

__version__ = "0.1.0"
