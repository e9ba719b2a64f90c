import warnings

import numpy as np
import pytest

from curlowrank.errors import MatrixInputError
from curlowrank.mmio import read_matrix, write_matrix


def test_round_trip_bit_exact(tmp_path, rng):
    a = rng.standard_normal((7, 4)) * np.exp(rng.standard_normal((7, 4)) * 8)
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    b = read_matrix(path)
    np.testing.assert_array_equal(a, b)


def test_header_and_column_major_layout(tmp_path):
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "2 2"
    assert [float(x) for x in lines[2:]] == [1.0, 2.0, 3.0, 4.0]


def test_read_tolerates_comments(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n"
        "2 1\n"
        "1.5\n"
        "-2.5\n"
    )
    np.testing.assert_array_equal(read_matrix(path), [[1.5], [-2.5]])


def test_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_rejects_wrong_entry_count(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n")
    with pytest.raises(ValueError):
        read_matrix(path)


HEADER = "%%MatrixMarket matrix array real general\n"


def test_rejects_non_numeric_entry(tmp_path):
    path = tmp_path / "word.mtx"
    path.write_text(HEADER + "2 1\n1.0\nabc\n")
    with pytest.raises(ValueError):
        read_matrix(path)


@pytest.mark.parametrize("body", ["1 2\n1.0 2.0\n", "2 2\n1.0 2.0\n3.0 4.0\n",
                                  "2 2\n1.0\n2.0 3.0\n4.0\n"])
def test_rejects_two_values_on_one_line(tmp_path, body):
    path = tmp_path / "wide.mtx"
    path.write_text(HEADER + body)
    with pytest.raises(ValueError):
        read_matrix(path)


@pytest.mark.parametrize("body", ["0 5\n", "3 0\n", "-2 -3\n" + "1.0\n" * 6, "-1 2\n1.0\n"])
def test_rejects_a_size_below_one(tmp_path, body):
    path = tmp_path / "empty_shape.mtx"
    path.write_text(HEADER + body)
    with pytest.raises(ValueError, match="bad dimensions line"):
        read_matrix(path)


@pytest.mark.parametrize("body", ["2\n1.0\n2.0\n", "2 x\n1.0\n2.0\n", "2 2 1\n", "", "2.5 2\n"])
def test_rejects_a_dimensions_line_without_two_integers(tmp_path, body):
    path = tmp_path / "no_shape.mtx"
    path.write_text(HEADER + body)
    with pytest.raises(ValueError, match="bad dimensions line"):
        read_matrix(path)


@pytest.mark.parametrize("where", ["header", "comment", "dimensions", "first_entry", "far_entry"])
def test_a_file_that_is_not_utf8_is_a_matrix_input_error(tmp_path, where):
    # "far_entry" sits past the first buffered read, where loadtxt decodes the body
    lines = [HEADER.rstrip("\n").encode(), b"% note", b"2000 1", *[b"1.5"] * 2000]
    spot = {"header": 0, "comment": 1, "dimensions": 2, "first_entry": 3, "far_entry": -1}[where]
    lines[spot] += b"\xff"
    path = tmp_path / "latin1.mtx"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(MatrixInputError, match="can't decode byte 0xff"):
        read_matrix(path)


def test_skips_blank_and_comment_lines_between_values(tmp_path):
    path = tmp_path / "gaps.mtx"
    path.write_text(HEADER + "2 2\n1.0\n\n% between\n2.0\n   \n3.0 % trailing note\n4.0\n")
    np.testing.assert_array_equal(read_matrix(path), [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize("body", ["", "% only a comment\n\n"])
def test_empty_body_is_a_count_error_without_warnings(tmp_path, body):
    path = tmp_path / "empty.mtx"
    path.write_text(HEADER + "2 2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="expected 4 entries, found 0"):
            read_matrix(path)


def test_values_parse_as_python_floats(tmp_path):
    texts = ["0.1", "-0", "4.9e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
             "1e400", "-1e-400", "9007199254740993", "0.30000000000000004", "+1.5", "1E5",
             "inf", "-Infinity", ".5", "5."]
    path = tmp_path / "tricky.mtx"
    path.write_text(HEADER + f"{len(texts)} 1\n" + "".join(t + "\n" for t in texts))
    expected = np.array([float(t) for t in texts])
    assert read_matrix(path).ravel().tobytes() == expected.tobytes()


def test_round_trip_600_by_500_with_extreme_entries(tmp_path):
    rng = np.random.default_rng(600500)
    a = rng.standard_normal((600, 500)) * 10.0 ** rng.integers(-300, 300, size=(600, 500))
    a[0, 0], a[1, 0], a[0, 1], a[599, 499] = -0.0, 5e-324, 1e300, -5e-324
    path = tmp_path / "big.mtx"
    write_matrix(a, path)
    b = read_matrix(path)
    assert b.shape == (600, 500) and b.flags.c_contiguous
    assert b.tobytes() == a.tobytes()
