import sparse_abft

# the package surface: a name joins or leaves it only by an edit here
PUBLIC = [
    "ArrayConfig", "CampaignConfig", "CampaignOutcome", "ChecksumRoundResult", "DenseMatrix",
    "FaultSpec", "MatrixFormatError", "OutcomeCategory", "Owner", "RegKind",
    "RegisterId", "RunResult", "ShapeError", "SimState", "SparsityPattern",
    "SparsityViolationError", "StructuredSparseMatrix", "TileResult", "WorkloadSpec",
    "aggregate", "classify", "enumerate_registers", "golden_result", "load_config",
    "parse_register", "prune_magnitude", "read_dense", "read_packed", "run_campaign",
    "run_campaigns", "run_multiplication", "sample_faults", "tile_active_cycles",
    "total_active_cycles", "write_dense", "write_packed",
]


def test_public_names_are_pinned():
    assert sorted(sparse_abft.__all__) == PUBLIC and len(PUBLIC) == 36
    assert all(hasattr(sparse_abft, name) for name in PUBLIC)

