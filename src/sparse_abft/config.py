"""Array geometry and datapath width configuration."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .sparsity import SparsityPattern, PATTERN_2_4


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry and bit widths of the sparse tensor array plus its checker.

    The array has ``rows`` x ``cols`` tensor PEs. Each PE row ingests
    ``pattern.m`` input lanes per cycle, so a weight tile spans
    ``pattern.m * rows`` logical weight rows. Every adder in the datapath
    wraps at its register's declared width.
    """

    rows: int = 8
    cols: int = 32
    pattern: SparsityPattern = field(default_factory=lambda: PATTERN_2_4)
    input_width: int = 8        # activation / weight / digit operands
    col_out_width: int = 24     # per-column partial-sum registers
    ic_width: int = 16          # input-checksum accumulators (west edge)
    oc_width: int = 24          # output-checksum adder chain (south edge)
    cksum_width: int = 48       # actual / predicted checksum accumulators

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have at least 1x1 tensor PEs")
        for name in _WIDTHS:   # every register is an int64 cell
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
            if getattr(self, name) > 63:
                raise ValueError(f"{name} must be at most 63 bits")
        if self.ic_width < self.input_width:
            raise ValueError("ic_width must be at least input_width")
        if self.ic_width % self.input_width != 0:
            raise ValueError("ic_width must be divisible by input_width")

    @property
    def slots(self) -> int:
        """Physical weight slots per tensor PE.

        The PE is built with two slots so one design covers both 2:4 and 1:4
        operation; in 1:4 mode slot 1 sits idle. Patterns with n > 2 grow
        the PE accordingly.
        """
        return max(2, self.pattern.n)

    @property
    def index_width(self) -> int:
        """Bits per stored weight index (row offset within an m-block)."""
        return (self.pattern.m - 1).bit_length()

    @property
    def tile_k(self) -> int:
        """Weight rows consumed by one loaded tile (= input lanes per cycle)."""
        return self.pattern.m * self.rows

    @property
    def rows_per_round(self) -> int:
        """Input rows that can accumulate before a checksum round is forced.

        The IC accumulators hold sums of input_width-wide values; after
        2^(ic_width - input_width) rows the sum can no longer be guaranteed
        to fit, so streaming is interrupted for a checksum round.
        """
        return 1 << (self.ic_width - self.input_width)

    @property
    def digits_per_round(self) -> int:
        """Digit waves needed to push one ic_width checksum through the array."""
        return self.ic_width // self.input_width

    def to_json_dict(self) -> dict:
        return {"pattern": str(self.pattern),
                **{key: getattr(self, name) for key, name in _INT_KEYS.items()}}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ArrayConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(obj) - {*_INT_KEYS, "pattern", "workload"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {name: json_typed(key, obj[key], int)
                  for key, name in _INT_KEYS.items() if key in obj}
        if "pattern" in obj:
            kwargs["pattern"] = SparsityPattern.parse(json_typed("pattern", obj["pattern"], str))
        return cls(**kwargs)


# the width fields, each its own cfg.json key
_WIDTHS = ("input_width", "ic_width", "oc_width", "col_out_width", "cksum_width")
# cfg.json key -> ArrayConfig field, for every integer key
_INT_KEYS = {"R": "rows", "C": "cols", **{name: name for name in _WIDTHS}}

_JSON_TYPE_NAMES = {int: "an integer", str: "a string", dict: "an object"}


def json_typed(name: str, value, kind: type):
    """``value`` if its JSON type is ``kind``, else ValueError naming config key ``name``.

    The type must match exactly: a bool is not an integer, and a float or a
    string is not truncated or parsed into one.
    """
    if type(value) is not kind:
        raise ValueError(f"config {name} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def read_json(path):
    """Parsed contents of a JSON file; a syntax error is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path}: {exc}") from exc


def load_config(path) -> ArrayConfig:
    return ArrayConfig.from_json_dict(read_json(path))
