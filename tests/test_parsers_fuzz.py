"""Generated text fed to the file parsers of ``accdm.io``: each returns a
value or raises FormatError, never another exception.  The expression
parser returns finite coefficients or raises ParseError."""

import cmath
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from accdm import io
from accdm.cli import main
from accdm.expressions import ParseError, parse_expression_file
from accdm.schur import su2_multiplicity
from accdm.states import AccessibleDensityMatrix
from accdm.tomography import IndistinguishabilityReport

from conftest import TWELVE_SETTINGS, sample_counts

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
                 mutated(io.format_counts(sample_counts()), ",")))
@example(NOT_ASCII_NUMBERS["counts-arabic-digit"][1])
def test_parse_counts_fuzz(text):
    returns_or_format_error(io.parse_counts, text)


@st.composite
def expression_templates(draw):
    """A constant, a derived mode and factors, in any order, with
    coefficients from NUMBERS: some are not finite, and some overflow only
    once the derived mode c, of norm 1 within MODE_NORM_TOL, is expanded."""
    coefficient = st.one_of(NUMBERS, NUMBERS.map(lambda x: x + "i"),
                            NUMBERS.map(lambda x: f"exp(i*{x}*pi)"),
                            st.sampled_from(["k", "1.7976931348623157e308"]))
    term = st.tuples(coefficient, st.sampled_from(["aH", "bV", "cH", "cV"])).map("*".join)
    factor = st.lists(term, min_size=1, max_size=3).map(
        lambda terms: "(" + "".join(t if t[0] in "+-" else "+" + t for t in terms) + ")")
    derived = st.one_of(st.sampled_from(["c = 0.6*a + 0.8i*b", "c = 1.0000000000004*a"]),
                        coefficient.map(lambda x: f"c = {x}*a"))
    lines = draw(st.permutations([f"k = {draw(coefficient)}", draw(derived),
                                  "".join(draw(st.lists(factor, min_size=1, max_size=3)))]))
    return "\n".join(lines[draw(st.integers(0, 2)):]) + "\n"


@FUZZ
@given(expression_templates())
@example("(1e400*aH)(aV)\n")
@example("(exp(i*1e400*pi)*aH)(aV)\n")
@example("x = 1e400\n(x*aH)(aV)\n")
def test_parse_expression_file_fuzz(text):
    try:
        expr = parse_expression_file(text)
    except ParseError:
        return
    assert all(cmath.isfinite(t.coefficient) for factor in expr.factors for t in factor)


# the report and trace readers take numbers as the input files do, and
# finite ones only (U+0660 is Arabic-Indic zero)
REPORT = io.format_report(IndistinguishabilityReport(0.727273, 0.5, "inconclusive", 1e-3))
TRACE = io.format_ll_trace(SimpleNamespace(ll_trace=[-1234.5, -1230.25, -1230.0]))


def report_with(line, replace=True):
    """REPORT with ``line`` in place of the line of its field, or added."""
    key = line.split()[0]
    kept = [ln for ln in REPORT.splitlines() if not (replace and ln.split()[0] == key)]
    return "\n".join(kept + [line]) + "\n"


BAD_REPORTS = {
    "tolerance-underscore": report_with("tolerance 1_0"),
    "population-nan": report_with("symmetric_population nan"),
    "purity-inf": report_with("purity inf"),
    "repeated-field": report_with("verdict inconclusive", replace=False),
    "unknown-field": report_with("symmetric 1.0"),
    "no-value": report_with("purity"),
}
BAD_TRACES = {
    "index-not-a-number": "x 1.0\n",
    "index-arabic-digit": "\u0660 1.5\n",
    "value-underscore": "0 1_5\n",
    "value-nan": "0 -12.5\n1 nan\n",
    "index-skipped": "0 -12.5\n2 -12.0\n",
    "three-fields": "0 -12.5 1\n",
}


def report_templates():
    fields = st.sampled_from(
        ["symmetric_population", "purity", "verdict", "tolerance", "x"])
    line = st.tuples(fields, st.one_of(NUMBERS, TOKENS)).map(" ".join)
    return st.lists(st.one_of(line, fields), max_size=6).map(
        lambda lines: "".join(ln + "\n" for ln in lines))


def trace_templates():
    index = st.one_of(st.integers(-1, 4).map(str), TOKENS)
    line = st.tuples(index, NUMBERS).map(" ".join)
    return st.lists(line, max_size=5).map(lambda lines: "".join(ln + "\n" for ln in lines))


@FUZZ
@given(st.one_of(report_templates(), mutated(REPORT, " ")))
@example(BAD_REPORTS["tolerance-underscore"])
@example(BAD_REPORTS["population-nan"])
def test_parse_report_fuzz(text):
    returns_or_format_error(io.parse_report, text)


@FUZZ
@given(st.one_of(trace_templates(), mutated(TRACE, " ")))
@example(BAD_TRACES["index-not-a-number"])
@example(BAD_TRACES["index-arabic-digit"])
@example(BAD_TRACES["value-underscore"])
def test_parse_ll_trace_fuzz(text):
    returns_or_format_error(io.parse_ll_trace, text)


@pytest.mark.parametrize("name", list(BAD_REPORTS))
def test_parse_report_rejects_bad_line(name):
    assert io.parse_report(REPORT) == IndistinguishabilityReport(
        0.727273, 0.5, "inconclusive", 1e-3)
    with pytest.raises(io.FormatError, match="bad report line"):
        io.parse_report(BAD_REPORTS[name])


@pytest.mark.parametrize("name", list(BAD_TRACES))
def test_parse_ll_trace_rejects_bad_line(name):
    np.testing.assert_array_equal(io.parse_ll_trace(TRACE),
                                  [-1234.5, -1230.25, -1230.0])
    with pytest.raises(io.FormatError, match="malformed trace line"):
        io.parse_ll_trace(BAD_TRACES[name])


@pytest.mark.parametrize("name", list(NOT_ASCII_NUMBERS))
def test_numbers_outside_ascii_exit_3(tmp_path, capsys, name):
    files = {"rho.dm": ONE_PHOTON,
             "settings.csv": io.format_settings(TWELVE_SETTINGS),
             "counts.csv": io.format_counts(sample_counts())}
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
