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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n_photons"):
        raise FormatError("density matrix file must start with 'n_photons <N>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as err:
        raise FormatError(f"bad n_photons line: {lines[0]!r}") from err
    if not 1 <= n <= N_MAX:
        raise FormatError(f"n_photons must be between 1 and {N_MAX}, got {n}")

    blocks: dict[int, np.ndarray] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[:2] != ["block", "two_j"] or len(parts) != 5:
            raise FormatError(f"expected 'block two_j <j2> multiplicity <m>', "
                              f"got {lines[i]!r}")
        if parts[3] != "multiplicity":
            raise FormatError(f"bad block header: {lines[i]!r}")
        try:
            two_j = int(parts[2])
            declared_mult = int(parts[4])
        except ValueError as err:
            raise FormatError(f"bad block header: {lines[i]!r}") from err
        if two_j in blocks:
            raise FormatError(f"block two_j={two_j} appears twice")
        if declared_mult != su2_multiplicity(n, two_j):
            raise FormatError(
                f"block two_j={two_j}: declared multiplicity {declared_mult} "
                f"does not match {su2_multiplicity(n, two_j)}")
        dim = two_j + 1
        rows = []
        for k in range(dim):
            i += 1
            if i >= len(lines):
                raise FormatError(f"block two_j={two_j}: missing matrix rows")
            values = lines[i].split()
            if len(values) != 2 * dim:
                raise FormatError(
                    f"block two_j={two_j}, row {k}: expected {2 * dim} numbers, "
                    f"got {len(values)}")
            try:
                numbers = [float(v) for v in values]
            except ValueError as err:
                raise FormatError(f"bad number in row {lines[i]!r}") from err
            rows.append([complex(numbers[2 * c], numbers[2 * c + 1])
                         for c in range(dim)])
        blocks[two_j] = np.array(rows)
        i += 1
    try:
        return AccessibleDensityMatrix(n, blocks)
    except ValueError as err:
        raise FormatError(f"file parsed but is not a valid state: {err}") from err


# ---------------------------------------------------------------------------
# Settings and counts tables
# ---------------------------------------------------------------------------

def format_settings(settings: list[WaveplateSetting]) -> str:
    lines = [SETTINGS_HEADER]
    lines += [f"{s.qwp_deg:g},{s.hwp_deg:g}" for s in settings]
    return "\n".join(lines) + "\n"


def parse_settings(text: str) -> list[WaveplateSetting]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != SETTINGS_HEADER:
        raise FormatError(f"settings file must start with header {SETTINGS_HEADER!r}")
    settings = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise FormatError(f"expected 'qwp_deg,hwp_deg', got {ln!r}")
        try:
            settings.append(WaveplateSetting(float(parts[0]), float(parts[1])))
        except ValueError as err:
            raise FormatError(f"bad settings row {ln!r}") from err
    if not settings:
        raise FormatError("settings file has no rows")
    return settings


def format_counts(records: list[CountRecord]) -> str:
    lines = [COUNTS_HEADER]
    for r in records:
        count = int(r.count) if float(r.count).is_integer() else r.count
        lines.append(f"{r.qwp_deg:g},{r.hwp_deg:g},{r.n_h},{r.n_v},{count}")
    return "\n".join(lines) + "\n"


def parse_counts(text: str) -> list[CountRecord]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != COUNTS_HEADER:
        raise FormatError(f"counts file must start with header {COUNTS_HEADER!r}")
    records = []
    cells = set()
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise FormatError(f"expected 5 columns, got {ln!r}")
        try:
            record = CountRecord(float(parts[0]), float(parts[1]),
                                 int(parts[2]), int(parts[3]), float(parts[4]))
        except ValueError as err:
            raise FormatError(f"bad counts row {ln!r}") from err
        cell = (record.qwp_deg, record.hwp_deg, record.n_h, record.n_v)
        if cell in cells:
            raise FormatError(f"repeated counts row {ln!r}")
        cells.add(cell)
        records.append(record)
    if not records:
        raise FormatError("counts file has no rows")
    return records


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
