"""Cycle-accurate N:M sparse systolic tensor array with ABFT checking."""

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
from .oracle import GoldenResult, checksum_identity, golden_result, matmul_ref
from .registers import Owner, RegisterId, RegKind, enumerate_registers, parse_register
from .sparsity import (
    DenseMatrix,
    ShapeError,
    SparsityPattern,
    SparsityViolationError,
    StructuredSparseMatrix,
    prune_magnitude,
    unpack,
    validate_structured,
)
from .systolic import SimState, StateError, TileResult, tile_active_cycles
from .tiling import Tile, TilePlan, tile_plan

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "CampaignConfig",
    "CampaignOutcome",
    "ChecksumRoundResult",
    "DenseMatrix",
    "FaultSpec",
    "GoldenResult",
    "MatrixFormatError",
    "OutcomeCategory",
    "Owner",
    "RegKind",
    "RegisterId",
    "RunResult",
    "ShapeError",
    "SimState",
    "SparsityPattern",
    "SparsityViolationError",
    "StateError",
    "StructuredSparseMatrix",
    "Tile",
    "TilePlan",
    "TileResult",
    "WorkloadSpec",
    "aggregate",
    "checksum_identity",
    "classify",
    "enumerate_registers",
    "golden_result",
    "load_config",
    "matmul_ref",
    "parse_register",
    "prune_magnitude",
    "read_dense",
    "read_packed",
    "run_campaign",
    "run_campaigns",
    "run_multiplication",
    "sample_faults",
    "tile_active_cycles",
    "tile_plan",
    "total_active_cycles",
    "unpack",
    "validate_structured",
    "write_dense",
    "write_packed",
]
