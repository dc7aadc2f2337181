"""Generated text fed to the three input-file parsers: each returns a value
or raises FormatError, never another exception."""

import pytest
from hypothesis import example, given, settings, strategies as st

from accdm import io
from accdm.cli import main
from accdm.schur import su2_multiplicity
from accdm.states import AccessibleDensityMatrix

from conftest import TWELVE_SETTINGS, sample_count_records

FUZZ = settings(derandomize=True, max_examples=200, deadline=None)

# numbers the formats hold and numbers they must refuse; then also words
NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats().map(repr),
    st.sampled_from(["0", "0.25", "-0", "1.5", "1e400", "nan", "-inf", "1_0", "+3"]),
)
TOKENS = st.one_of(NUMBERS, st.sampled_from(["0x10", "x", "", "two_j", "multiplicity"]))
# small photon numbers, so that a header that does parse stays cheap
PHOTONS = st.integers(-5, 50)
ANGLES = st.sampled_from(["0", "15", "0.0", "-0", "22.5", "nan", "x"])


@st.composite
def mutated(draw, text, sep, starts_record=lambda line: True):
    """A valid file with a few records (the header, a row, or a block header
    with its matrix rows) repeated or dropped, or one token replaced."""
    records = []
    for line in text.splitlines():
        if not records or starts_record(line):
            records.append([])
        records[-1].append(line)
    for _ in range(draw(st.integers(0, 3))):
        if not records:
            break
        i = draw(st.integers(0, len(records) - 1))
        action = draw(st.sampled_from(["repeat", "drop", "replace"]))
        if action == "repeat":
            records.append(list(records[i]))
        elif action == "drop":
            del records[i]
        else:
            k = draw(st.integers(0, len(records[i]) - 1))
            parts = records[i][k].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            records[i][k] = sep.join(parts)
    return "".join(line + "\n" for record in records for line in record)


@st.composite
def density_matrix_templates(draw):
    n = draw(PHOTONS)
    lines = [draw(st.sampled_from([f"n_photons {n}", "n_photons",
                                   f"n_photons {draw(TOKENS)}"]))]
    for _ in range(draw(st.integers(0, 4))):
        two_j = draw(st.integers(-1, 6))
        mult = su2_multiplicity(n, two_j) if n >= 1 else 1
        lines.append("block two_j {} multiplicity {}".format(
            draw(st.one_of(st.just(two_j), TOKENS)),
            draw(st.one_of(st.just(mult), TOKENS))))
        dim = max(two_j + 1, 0)
        for _ in range(draw(st.sampled_from([dim, dim, 0, dim + 1]))):
            width = draw(st.sampled_from([2 * dim, 2 * dim, 1]))
            values = draw(st.sampled_from([NUMBERS, NUMBERS, TOKENS]))
            lines.append(" ".join(draw(values) for _ in range(width)))
    return "\n".join(lines) + "\n"


VALID_DENSITY_MATRICES = st.integers(1, 4).map(
    lambda n: io.format_density_matrix(AccessibleDensityMatrix.maximally_mixed(n)))

# numbers that float() and int() read but the formats refuse: non-ASCII
# digits (U+0663 and U+0661 are Arabic-Indic three and one) and underscores
ONE_PHOTON = io.format_density_matrix(AccessibleDensityMatrix.maximally_mixed(1))
NOT_ASCII_NUMBERS = {
    "settings-arabic-digit": ("settings.csv", "qwp_deg,hwp_deg\n\u0663,0\n"),
    "settings-underscore": ("settings.csv", "qwp_deg,hwp_deg\n15,1_0\n"),
    "counts-arabic-digit": ("counts.csv", io.COUNTS_HEADER + "\n\u0663,0,1,0,5\n"),
    "matrix-photons-arabic-digit": (
        "rho.dm", ONE_PHOTON.replace("n_photons 1", "n_photons \u0661")),
    "matrix-entry-underscore": (
        "rho.dm", ONE_PHOTON.replace("5.00000000000000000e-01", "0.5_0", 1)),
}


@st.composite
def table_templates(draw, header, columns):
    lines = [draw(st.sampled_from([header, header.replace(",", ", "), draw(TOKENS)]))]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([columns, columns, columns - 1, columns + 1]))
        cells = [draw(ANGLES) for _ in range(min(width, 2))]
        # photon numbers from a small range, so that rows repeat
        cells += [str(draw(st.integers(-1, 3))) for _ in range(min(width, 4) - 2)]
        cells += [draw(TOKENS) for _ in range(width - len(cells))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def returns_or_format_error(parse, text):
    try:
        parse(text)
    except io.FormatError:
        pass


@FUZZ
@given(st.one_of(density_matrix_templates(),
                 VALID_DENSITY_MATRICES.flatmap(
                     lambda text: mutated(text, " ", lambda line: line.startswith("block")))))
@example(NOT_ASCII_NUMBERS["matrix-photons-arabic-digit"][1])
@example(NOT_ASCII_NUMBERS["matrix-entry-underscore"][1])
def test_parse_density_matrix_fuzz(text):
    returns_or_format_error(io.parse_density_matrix, text)


@FUZZ
@given(st.one_of(table_templates(io.SETTINGS_HEADER, 2),
                 mutated(io.format_settings(TWELVE_SETTINGS), ",")))
@example(NOT_ASCII_NUMBERS["settings-arabic-digit"][1])
@example(NOT_ASCII_NUMBERS["settings-underscore"][1])
def test_parse_settings_fuzz(text):
    returns_or_format_error(io.parse_settings, text)


@FUZZ
@given(st.one_of(table_templates(io.COUNTS_HEADER, 5),
                 mutated(io.format_counts(sample_count_records()), ",")))
@example(NOT_ASCII_NUMBERS["counts-arabic-digit"][1])
def test_parse_counts_fuzz(text):
    returns_or_format_error(io.parse_counts, text)



@pytest.mark.parametrize("name", list(NOT_ASCII_NUMBERS))
def test_numbers_outside_ascii_exit_3(tmp_path, capsys, name):
    files = {"rho.dm": ONE_PHOTON,
             "settings.csv": io.format_settings(TWELVE_SETTINGS),
             "counts.csv": io.format_counts(sample_count_records())}
    bad, text = NOT_ASCII_NUMBERS[name]
    files[bad] = text
    for file, content in files.items():
        (tmp_path / file).write_text(content)
    out = tmp_path / "out"
    if bad == "counts.csv":
        argv = ["reconstruct", tmp_path / "counts.csv", "--out", out]
    else:
        argv = ["simulate", tmp_path / "rho.dm", "--settings",
                tmp_path / "settings.csv", "--out", out]
    assert main([str(a) for a in argv]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
