"""Text formats for density matrices, settings, counts, and reports.

The density-matrix format mirrors the mathematical object: a header with the
photon number, then one record per block with its doubled j, multiplicity,
and matrix rows as alternating real/imaginary columns.  Blocks are stored
once; repetition across multiplicity copies is implicit.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .measurement import CountTable, WaveplateSetting
from .schur import _layout, su2_multiplicity
from .states import AccessibleDensityMatrix
from .tomography import IndistinguishabilityReport, ReconstructionResult

COUNTS_HEADER = "qwp_deg,hwp_deg,n_h,n_v,count"
SETTINGS_HEADER = "qwp_deg,hwp_deg"


class FormatError(ValueError):
    """Malformed input file."""


def _number(text: str, kind=float):
    """``kind(text)`` for ASCII text without underscores.  float() and int()
    also read other scripts' digits and ``1_0``; the formats hold neither."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return kind(text)


def _finite(text: str) -> float:
    value = _number(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------

def format_density_matrix(rho: AccessibleDensityMatrix) -> str:
    lines = [f"n_photons {rho.n}"]
    for two_j, block in rho.blocks.items():
        lines.append(f"block two_j {two_j} multiplicity {rho.multiplicity(two_j)}")
        # Python complex, not numpy scalars: the same text at a third less cost
        for row in block.tolist():
            lines.append(" ".join(f"{z.real:.17e} {z.imag:.17e}" for z in row))
    return "\n".join(lines) + "\n"


def parse_density_matrix(text: str) -> AccessibleDensityMatrix:
    lines = (ln.strip() for ln in text.splitlines() if ln.strip())
    first = next(lines, "")
    header = first.split()
    if len(header) != 2 or header[0] != "n_photons":
        raise FormatError("density matrix file must start with 'n_photons <N>'")
    try:
        n = _number(header[1], int)
        _layout(n)  # the photon number's gate, before any block is read
    except ValueError as err:
        raise FormatError(f"bad n_photons line {first!r}: {err}") from err

    blocks: dict[int, np.ndarray] = {}
    for line in lines:
        parts = line.split()
        if parts[:2] != ["block", "two_j"] or len(parts) != 5:
            raise FormatError(f"expected 'block two_j <j2> multiplicity <m>', "
                              f"got {line!r}")
        if parts[3] != "multiplicity":
            raise FormatError(f"bad block header: {line!r}")
        try:
            two_j = _number(parts[2], int)
            declared_mult = _number(parts[4], int)
        except ValueError as err:
            raise FormatError(f"bad block header: {line!r}") from err
        if two_j in blocks:
            raise FormatError(f"block two_j={two_j} appears twice")
        if declared_mult != su2_multiplicity(n, two_j):
            raise FormatError(
                f"block two_j={two_j}: declared multiplicity {declared_mult} "
                f"does not match {su2_multiplicity(n, two_j)}")
        dim = two_j + 1
        rows = []
        for k in range(dim):
            row = next(lines, None)
            if row is None:
                raise FormatError(f"block two_j={two_j}: missing matrix rows")
            values = row.split()
            if len(values) != 2 * dim:
                raise FormatError(
                    f"block two_j={two_j}, row {k}: expected {2 * dim} numbers, "
                    f"got {len(values)}")
            try:
                # alternating real and imaginary parts are complex128's layout
                rows.append(np.array([_number(v) for v in values]).view(complex))
            except ValueError as err:
                raise FormatError(f"bad number in row {row!r}") from err
        blocks[two_j] = np.array(rows)
    try:
        return AccessibleDensityMatrix(n, blocks)
    except ValueError as err:
        raise FormatError(f"file parsed but is not a valid state: {err}") from err


# ---------------------------------------------------------------------------
# Settings and counts tables
# ---------------------------------------------------------------------------

def _angle(deg: float) -> str:
    """``:g`` where that reads back as the same float, else ``repr``."""
    text = f"{deg:g}"
    return text if float(text) == float(deg) else repr(float(deg))


def _table(text: str, header: str, name: str, row, kinds: tuple,
           key=lambda value: value) -> list:
    """The values ``row(*cells)`` of the lines after ``header``, in order,
    each cell read by ``_number`` as the type of its column in ``kinds``.

    FormatError for a missing header, no rows, a wrong number of cells, a
    cell that is not a number of its type, a row that ``row`` refuses with
    ValueError, or a repeated ``key(value)``.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != header:
        raise FormatError(f"{name} file must start with header {header!r}")
    if len(lines) == 1:
        raise FormatError(f"{name} file has no rows")
    values, seen = [], set()
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(kinds):
            raise FormatError(f"expected {len(kinds)} columns, got {ln!r}")
        try:
            value = row(*map(_number, cells, kinds))
        except ValueError as err:
            raise FormatError(f"bad {name} row {ln!r}") from err
        cell = key(value)
        if cell in seen:
            raise FormatError(f"repeated {name} row {ln!r}")
        seen.add(cell)
        values.append(value)
    return values


def format_settings(settings: list[WaveplateSetting]) -> str:
    lines = [SETTINGS_HEADER]
    lines += [f"{_angle(s.qwp_deg)},{_angle(s.hwp_deg)}" for s in settings]
    return "\n".join(lines) + "\n"


def parse_settings(text: str) -> list[WaveplateSetting]:
    return _table(text, SETTINGS_HEADER, "settings", WaveplateSetting, (float, float))


def format_counts(data: CountTable) -> str:
    lines = [COUNTS_HEADER]
    for s, row in zip(data.settings, data.counts.tolist()):
        angles = f"{_angle(s.qwp_deg)},{_angle(s.hwp_deg)}"
        for n_v, count in enumerate(row):
            count = int(count) if count.is_integer() else count
            lines.append(f"{angles},{data.n - n_v},{n_v},{count}")
    return "\n".join(lines) + "\n"


def _count_row(qwp: float, hwp: float, n_h: int, n_v: int, count: float) -> tuple:
    if n_h < 0 or n_v < 0 or not 0 <= count < math.inf:
        raise ValueError("photon numbers and counts must be nonnegative, counts finite")
    return WaveplateSetting(qwp, hwp), n_h, n_v, count


def parse_counts(text: str) -> CountTable:
    """The table of a counts file, where a cell without a row counts zero.

    FormatError for a row that ``_table`` refuses, rows of different photon
    numbers, or a table that CountTable refuses.
    """
    rows = _table(text, COUNTS_HEADER, "counts", _count_row,
                  (float, float, int, int, float), key=lambda row: row[:3])
    found, n_h, n_v, values = zip(*rows)
    photons = {h + v for h, v in zip(n_h, n_v)}
    if len(photons) > 1:
        raise FormatError(f"counts rows mix photon numbers: {sorted(photons)}")
    index = {s: si for si, s in enumerate(dict.fromkeys(found))}
    try:
        # the photon number's gate, before a table of n + 1 columns
        counts = np.zeros((len(index), _layout(photons.pop()).n + 1))
        counts[[index[s] for s in found], n_v] = values
        return CountTable(list(index), counts)
    except ValueError as err:
        raise FormatError(f"counts file is not a valid table: {err}") from err


# ---------------------------------------------------------------------------
# Reports and diagnostics
# ---------------------------------------------------------------------------

_REPORT_FIELDS = {"symmetric_population": _finite, "purity": _finite,
                  "verdict": str, "tolerance": _finite}


def format_report(report: IndistinguishabilityReport) -> str:
    return (f"symmetric_population {report.symmetric_population:.6f}\n"
            f"purity {report.purity:.6f}\n"
            f"verdict {report.verdict}\n"
            f"tolerance {report.tolerance:g}\n")


def parse_report(text: str) -> IndistinguishabilityReport:
    """FormatError for a line that is not ``<field> <value>`` with a known
    field given once and, for the numbers, a finite value; or a missing field."""
    fields = {}
    for ln in text.splitlines():
        parts = ln.split()
        if not parts:
            continue
        try:
            key, value = parts
            if key in fields:
                raise ValueError(f"repeated field {key!r}")
            fields[key] = _REPORT_FIELDS[key](value)
        except (KeyError, ValueError) as err:
            raise FormatError(f"bad report line {ln.strip()!r}") from err
    missing = [key for key in _REPORT_FIELDS if key not in fields]
    if missing:
        raise FormatError(f"report file lacks {', '.join(missing)}")
    return IndistinguishabilityReport(**fields)


def format_ll_trace(result: ReconstructionResult) -> str:
    lines = [f"{i} {v:.12f}" for i, v in enumerate(result.ll_trace)]
    return "\n".join(lines) + "\n"


def parse_ll_trace(text: str) -> np.ndarray:
    values = []
    for ln in text.splitlines():
        parts = ln.split()
        if not parts:
            continue
        try:
            index, value = parts
            if _number(index, int) != len(values):
                raise ValueError(f"expected index {len(values)}")
            values.append(_finite(value))
        except ValueError as err:
            raise FormatError(f"malformed trace line {ln!r}") from err
    return np.array(values)


def write_atomic(path: str, text: str) -> None:
    """Write via a temporary file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
