import collections
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparse_abft import (ArrayConfig, Owner, RegisterId, RegKind, SimState, SparsityPattern,
                         enumerate_registers, parse_register)
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


NAME_PARTS = ["tpe", "ic", "oc", "cksum", "w", "idx", "in", "psum", "acc", "actual", "predicted",
              "0", "1", "7", "10", "01", "00", "+1", "-1", " 1", "1 ", "1_0", "\u0663", "0x1"]


@given(st.lists(st.sampled_from(NAME_PARTS) | st.text(max_size=3), max_size=6).map(".".join)
       | st.text())
@example("oc.01")
@example("oc.+1")
@example("oc. 1")
@example("oc.1_0")
@example("oc.\u0663")
@example("tpe.0.0.w.-1")
def test_names_parse_only_in_canonical_form(text):
    """A name parses only as itself: each index field is plain ASCII decimal,
    so no other text parses under a name the report would echo differently."""
    try:
        reg = parse_register(text)
    except ValueError:
        return
    assert reg.name == text


@pytest.mark.parametrize("rows, cols, pattern, digest", [
    (8, 32, "2:4", "6aecd5d1e8a0090b"),
    (8, 32, "1:4", "6aecd5d1e8a0090b"),
    (2, 3, "1:3", "12d41133fdff12e3"),
    (2, 3, "1:1", "7e3366fa5d5c4b7a"),   # zero-width index slots skipped
])
def test_enumeration_order_pinned(rows, cols, pattern, digest):
    """Seeded sampling draws bits in map order, so the order, names and widths
    of the population are fixed."""
    cfg = ArrayConfig(rows=rows, cols=cols, pattern=SparsityPattern.parse(pattern))
    text = "".join(f"{reg.name} {width}\n" for reg, width in enumerate_registers(cfg).entries)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("pattern", ["2:4", "1:4", "1:3", "1:1"])
def test_enumeration_covers_every_storage_cell_once(pattern):
    """Every kind of the register table with a non-zero width is listed once
    per cell of its ``SimState`` storage, at its width, so a kind added to
    the table is sampled like the others."""
    cfg = ArrayConfig(rows=2, cols=3, pattern=SparsityPattern.parse(pattern))
    state = SimState(cfg)
    listed = collections.Counter((reg.kind, tuple(getattr(reg, f) for f in reg.kind.fields), width)
                                 for reg, width in enumerate_registers(cfg).entries)
    cells = collections.Counter()
    for kind in RegKind:
        width = getattr(cfg, kind.width_attr)
        if width:
            cells.update((kind, cell, width)
                         for cell in np.ndindex(np.shape(getattr(state, kind.storage))))
    assert listed == cells
    assert {kind for kind, _, _ in cells} >= set(RegKind) - {RegKind.INDEX}
