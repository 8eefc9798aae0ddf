"""Cycle-accurate N:M sparse systolic tensor array with ABFT checking."""

import types

from .checker import ChecksumRoundResult
from .campaign import (
    CampaignConfig,
    CampaignOutcome,
    OutcomeCategory,
    WorkloadSpec,
    aggregate,
    classify,
    run_campaign,
    run_campaigns,
)
from .config import ArrayConfig, load_config
from .driver import RunResult, run_multiplication, total_active_cycles
from .faults import FaultSpec, sample_faults
from .matio import MatrixFormatError, read_dense, read_packed, write_dense, write_packed
from .oracle import golden_result
from .registers import Owner, RegisterId, RegKind, enumerate_registers, parse_register
from .sparsity import (
    DenseMatrix,
    ShapeError,
    SparsityPattern,
    SparsityViolationError,
    StructuredSparseMatrix,
    prune_magnitude,
)
from .systolic import SimState, TileResult, tile_active_cycles

__version__ = "0.1.0"

# the public surface: every name imported above
__all__ = sorted(name for name, value in vars().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
