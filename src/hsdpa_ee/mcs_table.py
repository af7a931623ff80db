"""CQI/MCS lookup tables and the SINR -> CQI quantiser.

A table row associates a CQI index with the SINR threshold at which its
transport block meets its block error target, plus informational
modulation/code-count columns. The controller only relies on three
structural properties, which are enforced on construction:

  * cqi_index runs 1..N consecutively,
  * every threshold and block size is finite,
  * sinr_threshold_db is strictly increasing,
  * tbs_bits is positive and non-decreasing.

Everything downstream is table-driven; swapping the bundled synthetic
table for a measured one is a data change, not a code change.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

__all__ = [
    "McsEntry",
    "McsTable",
    "cqi_from_sinr",
    "threshold_delta",
    "load_table",
    "load_table_file",
    "default_table",
    "reference_table",
    "make_uniform_table",
    "table_to_csv",
]

CSV_HEADER = "cqi,sinr_db,tbs_bits,mod_order,codes"


@dataclass(frozen=True)
class McsEntry:
    cqi_index: int
    sinr_threshold_db: float
    tbs_bits: int
    mod_order: int  # bits per symbol, informational
    num_codes: int  # spreading codes used, informational


@dataclass(frozen=True)
class McsTable:
    """Validated MCS table."""

    entries: tuple[McsEntry, ...]
    # cached lookup arrays, derived in __post_init__
    thresholds_db: np.ndarray = field(init=False, repr=False, compare=False)
    tbs_bits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("table must contain at least one entry")
        for pos, e in enumerate(self.entries, start=1):
            if e.cqi_index != pos:
                raise ValueError(
                    f"cqi indices must run 1..N consecutively, "
                    f"found {e.cqi_index} at position {pos}"
                )
            if not (math.isfinite(e.sinr_threshold_db) and math.isfinite(e.tbs_bits)):
                raise ValueError(
                    f"cqi {e.cqi_index}: sinr threshold and tbs_bits must be finite, "
                    f"got {e.sinr_threshold_db} and {e.tbs_bits}"
                )
            if e.tbs_bits <= 0:
                raise ValueError(f"cqi {e.cqi_index}: tbs_bits must be > 0")
            if e.num_codes < 1:
                raise ValueError(f"cqi {e.cqi_index}: codes must be >= 1")
        thr = np.array([e.sinr_threshold_db for e in self.entries], dtype=float)
        if np.any(np.diff(thr) <= 0.0):
            raise ValueError("sinr thresholds must be strictly increasing")
        tbs = np.array([e.tbs_bits for e in self.entries], dtype=float)
        if np.any(np.diff(tbs) < 0.0):
            raise ValueError("tbs_bits must be non-decreasing")
        object.__setattr__(self, "thresholds_db", thr)
        object.__setattr__(self, "tbs_bits", tbs)
        # plain-list mirror: bisect on a list beats np.searchsorted for
        # the scalar lookups in the per-TTI loop
        object.__setattr__(self, "_thr_list", [float(t) for t in thr])
        object.__setattr__(self, "_tbs_list", [int(e.tbs_bits) for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)

    def threshold(self, cqi: int) -> float:
        """SINR threshold in dB of a valid index (1..N)."""
        if not 1 <= cqi <= len(self.entries):
            raise ValueError(f"cqi index {cqi} outside 1..{len(self.entries)}")
        return self._thr_list[cqi - 1]

    def tbs(self, cqi: int) -> int:
        """Transport block size in bits of a valid index (1..N)."""
        if not 1 <= cqi <= len(self.entries):
            raise ValueError(f"cqi index {cqi} outside 1..{len(self.entries)}")
        return self._tbs_list[cqi - 1]


def cqi_from_sinr(table: McsTable, sinr_db):
    """Largest CQI whose threshold is <= sinr_db, or 0 below the table.

    The 0 return is the out-of-range marker: no entry is supportable and
    the scheduler should not serve data. Scalar inputs use bisect,
    arrays go through searchsorted.
    """
    if np.ndim(sinr_db) == 0:
        return bisect_right(table._thr_list, float(sinr_db))
    return np.searchsorted(table.thresholds_db, np.asarray(sinr_db), side="right")


def threshold_delta(table: McsTable, from_cqi: int, to_cqi: int) -> float:
    """Threshold difference beta_to - beta_from in dB between two indices."""
    return table.threshold(to_cqi) - table.threshold(from_cqi)


def load_table(text: str) -> McsTable:
    """Parse CSV table content. Lines starting with '#' are comments.

    Raises ValueError with the 1-based row number on any malformed row.
    """
    rows = []
    header_seen = False
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ValueError(
                    f"row {lineno}: expected header '{CSV_HEADER}', got '{line}'"
                )
            header_seen = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise ValueError(f"row {lineno}: expected 5 fields, got {len(parts)}")
        try:
            entry = McsEntry(
                cqi_index=int(parts[0]),
                sinr_threshold_db=float(parts[1]),
                tbs_bits=int(parts[2]),
                mod_order=int(parts[3]),
                num_codes=int(parts[4]),
            )
        except ValueError as exc:
            raise ValueError(f"row {lineno}: {exc}") from None
        rows.append(entry)
    if not header_seen:
        raise ValueError("row 1: missing header line")
    if not rows:
        raise ValueError("table has a header but no data rows")
    return McsTable(entries=tuple(rows))


def load_table_file(path) -> McsTable:
    with open(path, "r", encoding="utf-8") as fh:
        return load_table(fh.read())


def make_uniform_table(
    step_db: float = 1.0,
    entries: int = 30,
    first_threshold_db: float = -4.5,
    tbs_min_bits: int = 137,
    tbs_max_bits: int = 25558,
) -> McsTable:
    """Synthetic table: uniform threshold spacing, geometric TBS growth.

    Shaped like the 30-level category-10 CQI range (QPSK at the bottom,
    higher orders and more codes toward the top) but with evenly spaced
    thresholds, which keeps power-shift arithmetic on indices exact.
    """
    if entries < 2:
        raise ValueError("need at least 2 entries")
    if step_db <= 0.0:
        raise ValueError("step_db must be > 0")
    if tbs_max_bits < tbs_min_bits:
        raise ValueError("tbs_max_bits must be >= tbs_min_bits")
    ratio = (tbs_max_bits / tbs_min_bits) ** (1.0 / (entries - 1))
    rows = []
    for k in range(1, entries + 1):
        frac = (k - 1) / (entries - 1)
        tbs = int(round(tbs_min_bits * ratio ** (k - 1)))
        mod = 2 if frac < 0.5 else (4 if frac < 0.85 else 6)
        codes = max(1, int(np.ceil(15.0 * k / entries)))
        rows.append(
            McsEntry(
                cqi_index=k,
                sinr_threshold_db=first_threshold_db + (k - 1) * step_db,
                tbs_bits=tbs,
                mod_order=mod,
                num_codes=codes,
            )
        )
    return McsTable(entries=tuple(rows))


def table_to_csv(table: McsTable, comment: str | None = None) -> str:
    """Serialise a table to the CSV format load_table accepts."""
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(CSV_HEADER)
    for e in table.entries:
        out.append(
            f"{e.cqi_index},{e.sinr_threshold_db:.6g},{e.tbs_bits},"
            f"{e.mod_order},{e.num_codes}"
        )
    return "\n".join(out) + "\n"


@lru_cache(maxsize=1)
def default_table() -> McsTable:
    """The synthetic 30-entry table: make_uniform_table's defaults (1.0 dB
    threshold spacing), one object for every caller."""
    return make_uniform_table()


@lru_cache(maxsize=1)
def reference_table() -> McsTable:
    """Bundled table with the standard category-10 block sizes.

    Same uniform 1.0 dB threshold grid as the default, but the TBS column
    saturates toward the top of the range. That concavity is what gives
    the per-level efficiency estimate an interior maximum, so this is the
    table the experiment presets run on.
    """
    text = (
        resources.files("hsdpa_ee")
        .joinpath("data/reference_mcs_table.csv")
        .read_text(encoding="utf-8")
    )
    return load_table(text)
