"""Text formats for density matrices, settings, counts, and reports.

The density-matrix format mirrors the mathematical object: a header with the
photon number, then one record per block with its doubled j, multiplicity,
and matrix rows as alternating real/imaginary columns.  Blocks are stored
once; repetition across multiplicity copies is implicit.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .measurement import CountRecord, WaveplateSetting
from .schur import N_MAX, su2_multiplicity
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


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------

def format_density_matrix(rho: AccessibleDensityMatrix) -> str:
    lines = [f"n_photons {rho.n}"]
    for two_j in sorted(rho.blocks, reverse=True):
        block = rho.blocks[two_j]
        mult = su2_multiplicity(rho.n, two_j)
        lines.append(f"block two_j {two_j} multiplicity {mult}")
        for row in block:
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
    except ValueError as err:
        raise FormatError(f"bad n_photons line: {first!r}") from err
    if not 1 <= n <= N_MAX:
        raise FormatError(f"n_photons must be between 1 and {N_MAX}, got {n}")

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
    return text if float(text) == deg else repr(float(deg))


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


def format_counts(records: list[CountRecord]) -> str:
    lines = [COUNTS_HEADER]
    for r in records:
        count = int(r.count) if float(r.count).is_integer() else r.count
        lines.append(f"{_angle(r.qwp_deg)},{_angle(r.hwp_deg)},{r.n_h},{r.n_v},{count}")
    return "\n".join(lines) + "\n"


def parse_counts(text: str) -> list[CountRecord]:
    return _table(text, COUNTS_HEADER, "counts", CountRecord,
                  (float, float, int, int, float),
                  key=lambda r: (r.qwp_deg, r.hwp_deg, r.n_h, r.n_v))


# ---------------------------------------------------------------------------
# Reports and diagnostics
# ---------------------------------------------------------------------------

def format_report(report: IndistinguishabilityReport) -> str:
    return (f"symmetric_population {report.symmetric_population:.6f}\n"
            f"purity {report.purity:.6f}\n"
            f"verdict {report.verdict}\n"
            f"tolerance {report.tolerance:g}\n")


def parse_report(text: str) -> IndistinguishabilityReport:
    fields = {}
    for ln in text.splitlines():
        if ln.strip():
            key, _, value = ln.partition(" ")
            fields[key] = value.strip()
    try:
        return IndistinguishabilityReport(
            symmetric_population=float(fields["symmetric_population"]),
            purity=float(fields["purity"]),
            verdict=fields["verdict"],
            tolerance=float(fields["tolerance"]))
    except (KeyError, ValueError) as err:
        raise FormatError(f"malformed report file: {err}") from err


def format_ll_trace(result: ReconstructionResult) -> str:
    lines = [f"{i} {v:.12f}" for i, v in enumerate(result.ll_trace)]
    return "\n".join(lines) + "\n"


def parse_ll_trace(text: str) -> np.ndarray:
    values = []
    for i, ln in enumerate(ln for ln in text.splitlines() if ln.strip()):
        parts = ln.split()
        if len(parts) != 2 or int(parts[0]) != i:
            raise FormatError(f"malformed trace line {ln!r}")
        values.append(float(parts[1]))
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
