import pytest

from sparse_abft import ArrayConfig, Owner, RegisterId, RegKind, enumerate_registers, parse_register
from sparse_abft.sparsity import PATTERN_1_4


def per_tpe_bits(cfg):
    """Independent recount of one PE's storage from the declared layout."""
    return (
        cfg.slots * cfg.input_width
        + cfg.slots * cfg.index_width
        + cfg.pattern.m * cfg.input_width
        + cfg.col_out_width
    )


def test_default_model_bit_counts():
    cfg = ArrayConfig()  # 8x32
    assert per_tpe_bits(cfg) == 2 * 8 + 2 * 2 + 4 * 8 + 24 == 76
    rm = enumerate_registers(cfg)
    assert rm.array_bits == 256 * 76 == 19456
    # checker: IC 8*4*16, OC 32*24, two 48-bit accumulators
    assert rm.checker_bits == 512 + 768 + 96 == 1376
    assert rm.total_bits == 20832


def test_1x1_model_bit_counts():
    cfg = ArrayConfig(rows=1, cols=1)
    rm = enumerate_registers(cfg)
    assert rm.array_bits == 76
    assert rm.checker_bits == 64 + 24 + 96


def test_1_4_mode_same_bit_population():
    # the PE keeps both physical slots regardless of the active pattern
    rm = enumerate_registers(ArrayConfig(pattern=PATTERN_1_4))
    assert rm.array_bits == 19456 and rm.checker_bits == 1376


def test_every_register_exactly_once():
    cfg = ArrayConfig(rows=2, cols=3)
    rm = enumerate_registers(cfg)
    regs = [reg for reg, _ in rm.entries]
    assert len(regs) == len(set(regs))
    expected = 2 * 3 * (2 + 2 + 4 + 1) + 2 * 4 + 3 + 2
    assert len(regs) == expected


def test_owner_split():
    rm = enumerate_registers(ArrayConfig(rows=1, cols=1))
    owners = {reg.kind: reg.owner for reg, _ in rm.entries}
    assert owners[RegKind.WEIGHT] is Owner.ARRAY
    assert owners[RegKind.PSUM] is Owner.ARRAY
    assert owners[RegKind.IC_ACC] is Owner.CHECKER
    assert owners[RegKind.OC_PIPE] is Owner.CHECKER
    assert owners[RegKind.CKSUM_ACTUAL] is Owner.CHECKER


def test_locate_bit_covers_population():
    cfg = ArrayConfig(rows=1, cols=2)
    rm = enumerate_registers(cfg)
    seen = {}
    for bit in range(rm.total_bits):
        reg, offset = rm.locate_bit(bit)
        assert 0 <= offset < rm.width_of(reg)
        seen[reg] = seen.get(reg, 0) + 1
    assert seen == dict(rm.entries)
    with pytest.raises(ValueError):
        rm.locate_bit(rm.total_bits)


def test_names_roundtrip():
    cfg = ArrayConfig(rows=2, cols=2)
    for reg, _ in enumerate_registers(cfg).entries:
        assert parse_register(reg.name) == reg


@pytest.mark.parametrize("bad", ["tpe.0.0", "tpe.0.0.q.1", "ic.0.1", "oc", "cksum.x", "zzz"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_register(bad)


def test_register_name_forms():
    assert RegisterId(RegKind.WEIGHT, 1, 2, 0).name == "tpe.1.2.w.0"
    assert RegisterId(RegKind.INPUT_PIPE, 0, 3, 2).name == "tpe.0.3.in.2"
    assert RegisterId(RegKind.PSUM, 7, 31).name == "tpe.7.31.psum"
    assert RegisterId(RegKind.IC_ACC, row=4, lane=1).name == "ic.4.acc.1"
    assert RegisterId(RegKind.OC_PIPE, col=9).name == "oc.9"
    assert RegisterId(RegKind.CKSUM_PREDICTED).name == "cksum.predicted"
