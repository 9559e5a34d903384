import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aogd import ingest
from aogd.ingest import ParseError, load_dataset, parse_libsvm_line

FIXTURE = """\
+1 1:0.5 3:-1.25
-1 2:2 4:0.125   # trailing comment
0 1:1.5
1   3:0.75
"""


def write_line(label, indices, values):
    return " ".join([f"{label:+d}"] + [f"{i}:{v:g}" for i, v in zip(indices, values)])


class TestParseLine:
    def test_basic(self):
        assert parse_libsvm_line("+1 1:0.5 3:-1.25") == (1, [1, 3], [0.5, -1.25])

    @pytest.mark.parametrize("raw,expected", [("0", -1), ("-1", -1),
                                              ("1", 1), ("+1", 1)])
    def test_label_mapping(self, raw, expected):
        assert parse_libsvm_line(f"{raw} 1:1")[0] == expected

    def test_comment_stripped(self):
        assert parse_libsvm_line("-1 2:3 # note") == (-1, [2], [3.0])

    def test_label_only(self):
        assert parse_libsvm_line("+1") == (1, [], [])

    def test_extra_whitespace(self):
        assert parse_libsvm_line("  1   2:1.0    5:2.0  ") == (1, [2, 5], [1.0, 2.0])

    @pytest.mark.parametrize("line,fragment", [
        ("", "empty"),
        ("   # only comment", "empty"),
        ("2 1:1", "label"),
        ("+1 1:1 1:2", "non-increasing"),
        ("+1 3:1 2:2", "non-increasing"),
        ("+1 0:1", "below 1"),
        ("+1 -2:1", "below 1"),
        ("+1 a:1", "malformed"),
        ("+1 1:xyz", "malformed"),
        ("+1 1", "malformed"),
        ("+1 1:nan", "non-finite"),
        ("+1 99999999999999999999:2", "too large"),
        ("+1 9223372036854775808:2", "too large"),
    ])
    def test_rejects_bad_lines(self, line, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_libsvm_line(line, lineno=7)

    def test_largest_index_accepted(self):
        assert parse_libsvm_line("-1 9223372036854775807:2") == (
            -1, [2**63 - 1], [2.0])

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 42"):
            parse_libsvm_line("bogus", lineno=42)


class TestRoundTrip:
    def test_serialize_parse(self):
        line = write_line(-1, [1, 7], [0.5, -3.0])
        assert parse_libsvm_line(line) == (-1, [1, 7], [0.5, -3.0])

    def test_random_examples(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            idxs = [int(i) for i in
                    np.sort(rng.choice(np.arange(1, 30), size=5, replace=False))]
            vals = [float(round(rng.normal(), 4)) for _ in idxs]
            label = int(rng.choice([-1, 1]))
            assert parse_libsvm_line(write_line(label, idxs, vals)) == (label, idxs, vals)


class TestLoadDataset:
    def write_fixture(self, tmp_path, text=FIXTURE):
        path = tmp_path / "data.libsvm"
        path.write_text(text)
        return str(path)

    def test_full_load(self, tmp_path):
        labels, features = load_dataset(self.write_fixture(tmp_path)).dense()
        np.testing.assert_array_equal(labels, [1, -1, -1, 1])
        assert features.shape == (4, 4)
        assert features[0, 2] == -1.25
        assert features[1, 3] == 0.125
        assert features[3, 2] == 0.75

    def test_max_rows(self, tmp_path):
        labels, features = load_dataset(self.write_fixture(tmp_path),
                                        max_rows=2).dense()
        np.testing.assert_array_equal(labels, [1, -1])
        assert features.shape == (2, 4)

    @pytest.mark.parametrize("max_rows", [0, -1, -5])
    def test_max_rows_below_one_rejected(self, tmp_path, max_rows):
        with pytest.raises(ParseError, match="max_rows"):
            load_dataset(self.write_fixture(tmp_path), max_rows=max_rows)

    def test_blank_lines_skipped(self, tmp_path):
        labels, features = load_dataset(
            self.write_fixture(tmp_path, "+1 1:1\n\n\n-1 2:1\n")).dense()
        np.testing.assert_array_equal(labels, [1, -1])
        np.testing.assert_array_equal(features, [[1.0, 0.0], [0.0, 1.0]])

    def test_error_points_at_line(self, tmp_path):
        path = self.write_fixture(tmp_path, "+1 1:1\nbroken line\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="no examples"):
            load_dataset(self.write_fixture(tmp_path, "\n\n"))

    def test_unallocatable_dense_matrix_named(self, tmp_path):
        # the largest index passes every line check, but no (1, d) float
        # matrix of that width can exist: numpy refuses it before any
        # allocation, whatever the machine's memory
        path = self.write_fixture(tmp_path, "+1 9223372036854775807:1\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == (
            f"{path}: largest feature index 9223372036854775807 asks for a "
            f"dense (n, d) = (1, 9223372036854775807) matrix, which cannot "
            f"be allocated")

    def test_dense_matches_sparse(self, tmp_path):
        labels, features = load_dataset(self.write_fixture(tmp_path)).dense()
        for i, line in enumerate(FIXTURE.splitlines()):
            label, indices, values = parse_libsvm_line(line)
            row = np.zeros(features.shape[1])
            row[np.array(indices) - 1] = values
            np.testing.assert_array_equal(features[i], row)
            assert labels[i] == label


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sparse_rows(draw):
    """(label token, label, indices, values) rows: 1-based sorted distinct
    indices with gaps, any finite values; some rows carry no features."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(n):
        token = draw(st.sampled_from(["+1", "1", "-1", "0"]))
        indices = sorted(draw(st.sets(st.integers(1, 40), max_size=8)))
        values = [draw(finite) for _ in indices]
        rows.append((token, 1 if token in ("+1", "1") else -1, indices, values))
    return rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=sparse_rows(), comments=st.lists(st.booleans(), min_size=12, max_size=12),
       blanks=st.lists(st.booleans(), min_size=12, max_size=12),
       headers=st.lists(st.booleans(), min_size=12, max_size=12),
       max_rows=st.integers(1, 12))
def test_load_dataset_matches_hand_built_arrays(rows, comments, blanks, headers,
                                                max_rows):
    lines = []
    for (token, _, indices, values), comment, blank, header in zip(
            rows, comments, blanks, headers):
        if header:
            lines.append("# header 1:2")
        line = " ".join([token] + [f"{i}:{v!r}" for i, v in zip(indices, values)])
        lines.append(line + ("  # note 3:4" if comment else ""))
        if blank:
            lines.append("   ")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.libsvm")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for limit in (None, max_rows):
            kept = rows[:limit]
            d = max((idx[-1] for _, _, idx, _ in kept if idx), default=0)
            expected = np.zeros((len(kept), d))
            for i, (_, _, indices, values) in enumerate(kept):
                for idx, val in zip(indices, values):
                    expected[i, idx - 1] = val
            labels, features = load_dataset(path, max_rows=limit).dense()
            assert labels.dtype == features.dtype == np.float64
            assert labels.tobytes() == np.array([r[1] for r in kept], float).tobytes()
            assert features.shape == expected.shape
            assert features.tobytes() == expected.tobytes()


def first_error(lines, max_rows=None):
    """The message of the first line that parse_libsvm_line rejects among
    the lines that load_dataset reads, or None."""
    kept = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.split("#", 1)[0].strip():
            continue
        try:
            parse_libsvm_line(line, lineno)
        except ParseError as err:
            return str(err)
        kept += 1
        if kept == max_rows:
            return None
    return None


def write_lines(path, lines, newline="\n"):
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + newline for line in lines))
    return str(path)


# one edit of a line's text per way a line can be rejected
CORRUPTIONS = {
    "label": lambda text, last: "2" + text[len(text.split()[0]):],
    "no_colon": lambda text, last: f"{text} {last + 1}",
    "two_colons": lambda text, last: f"{text} {last + 1}:2:3",
    "double_colon": lambda text, last: f"{text} {last + 1}::3",
    "colon_only": lambda text, last: f"{text} :",
    "empty_index": lambda text, last: f"{text} :{last + 1}",
    "empty_value": lambda text, last: f"{text} {last + 1}:",
    "bad_index": lambda text, last: f"{text} x{last + 1}:1",
    "bad_value": lambda text, last: f"{text} {last + 1}:1.2.3",
    "below_one": lambda text, last: f"{text} 0:1",
    "too_large": lambda text, last: f"{text} 99999999999999999999:1",
    "repeated": lambda text, last: f"{text} {max(last, 1)}:1 {max(last, 1)}:2",
    "decreasing": lambda text, last: f"{text} {last + 2}:1 {last + 1}:1",
    "non_finite": lambda text, last: f"{text} {last + 1}:1e999",
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(rows=sparse_rows(), at=st.integers(0, 11),
       also=st.none() | st.tuples(st.integers(0, 11),
                                  st.sampled_from(sorted(CORRUPTIONS))),
       max_rows=st.none() | st.integers(1, 12),
       block=st.sampled_from([1, 2, 3, 64]))
def test_load_dataset_raises_the_first_bad_lines_error(kind, rows, at, also,
                                                       max_rows, block):
    lines = [" ".join([token] + [f"{i}:{v!r}" for i, v in zip(indices, values)])
             for token, _, indices, values in rows]
    for position, edit in [(at, kind)] + ([also] if also else []):
        position %= len(lines)
        indices = rows[position][2]
        lines[position] = CORRUPTIONS[edit](lines[position],
                                            indices[-1] if indices else 0)
    expected = first_error(lines, max_rows)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ingest, "_BLOCK_LINES", block):
        path = write_lines(os.path.join(tmp, "data.libsvm"), lines)
        if expected is None:
            load_dataset(path, max_rows=max_rows)
        else:
            with pytest.raises(ParseError) as err:
                load_dataset(path, max_rows=max_rows)
            assert str(err.value) == expected


class TestBlockParse:
    """The parse by blocks of lines against the line-by-line reference."""

    LINES = ["+1 1:0.5 3:-1.25", "-1 2:2 4:0.125", "", "0 1:1.5", "1   3:0.75"]

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_cr_and_crlf_line_endings(self, tmp_path, newline):
        expected = load_dataset(write_lines(tmp_path / "lf.libsvm", self.LINES))
        got = load_dataset(write_lines(tmp_path / "cr.libsvm", self.LINES,
                                       newline))
        assert got.labels.tobytes() == expected.labels.tobytes()
        assert got.features.tobytes() == expected.features.tobytes()
        bad = write_lines(tmp_path / "bad.libsvm", self.LINES + ["+1 2:x"], newline)
        with pytest.raises(ParseError) as err:
            load_dataset(bad)
        assert str(err.value) == "line 6: malformed token '2:x'"

    def test_form_feed_does_not_end_a_line(self, tmp_path):
        # str.splitlines() would end a line at \x0c; the file reader does not
        lines = ["+1 1:1\x0c2:2", "-1 1:3", "+1 2:1 1:1"]
        path = write_lines(tmp_path / "data.libsvm", lines)
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == "line 3: non-increasing feature index 1"
        labels, features = load_dataset(path, max_rows=2).dense()
        np.testing.assert_array_equal(features, [[1.0, 2.0], [3.0, 0.0]])

    @pytest.mark.parametrize("line", ["+1 +3:1", "+1 007:1", "+1 1_0:2",
                                      "+1 1:1e3", "+1 1:-0.0", "+1 1:5e-324",
                                      "+1 ٣:1.5", "-1 2:١٢"])
    def test_spellings_give_the_line_parse_bits(self, tmp_path, line):
        label, indices, values = parse_libsvm_line(line)
        row = np.zeros(max(indices))
        row[np.array(indices) - 1] = values
        labels, features = load_dataset(
            write_lines(tmp_path / "data.libsvm", [line])).dense()
        assert labels.tobytes() == np.array([label], float).tobytes()
        assert features.tobytes() == row[None, :].tobytes()

    @pytest.mark.parametrize("line", [
        "-1 1 2:3:4",     # as many colons as tokens, and as many pieces
        "-1 1:2:3 4",
        "+1 1 2 3:4",     # twice as many pieces as colons
        "+1 1:2:3:4",
        "+1 1::2",        # two pieces from two colons
        "+1 1: 2:3",
        "+1 :1 2:3",
        "+1 2:3 :",
        "+1 2 :3",        # a token without a colon, then one that starts with it
        "+1 2: :3",
        "+1 2:3 4:5:# the last byte of the block's text is a colon",
    ])
    def test_misplaced_colons_are_rejected(self, tmp_path, line):
        with pytest.raises(ParseError) as expected:
            parse_libsvm_line(line, 2)
        path = write_lines(tmp_path / "data.libsvm", ["+1 1:1", line])
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == str(expected.value)

    def test_whitespace_past_ascii_separates_tokens(self, tmp_path):
        # str.split() splits at these, and the file reader ends no line there
        line = "+1\xa01:2\u30003:4\x855:6 \u2028 7:8"
        labels, features = load_dataset(
            write_lines(tmp_path / "data.libsvm", [line, "-1 2:1"])).dense()
        np.testing.assert_array_equal(labels, [1, -1])
        np.testing.assert_array_equal(features, [[2, 0, 4, 0, 6, 0, 8],
                                                 [0, 1, 0, 0, 0, 0, 0]])

    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_bad_line_past_max_rows_is_not_read(self, tmp_path, block,
                                                monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_LINES", block)
        path = write_lines(tmp_path / "data.libsvm",
                           ["+1 1:1", "# note", "-1 2:1", "+1 3:x", "bogus"])
        labels, features = load_dataset(path, max_rows=2).dense()
        np.testing.assert_array_equal(labels, [1, -1])
        np.testing.assert_array_equal(features, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ParseError, match="line 4: malformed token"):
            load_dataset(path, max_rows=3)

    def test_blocks_of_two_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_LINES", 2)
        # each line starts below the index the line before it ended on,
        # within a block and across block boundaries
        lines = ["+1 3:1 5:2", "-1 1:3 2:4", "", "+1 4:5", "-1 1:6 6:7",
                 "+1 2:8"]
        path = write_lines(tmp_path / "data.libsvm", lines)
        labels, features = load_dataset(path).dense()
        expected = np.zeros((5, 6))
        for i, line in enumerate(line for line in lines if line):
            _, indices, values = parse_libsvm_line(line)
            expected[i, np.array(indices) - 1] = values
        assert features.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(labels, [1, -1, 1, -1, 1])
        # two bad lines in the third block: the first of them is named, also
        # when its fault is one the block checks after the other's label
        bad = lines[:4] + ["+1 2:inf", "x 1:1"]
        with pytest.raises(ParseError) as err:
            load_dataset(write_lines(tmp_path / "bad.libsvm", bad))
        assert str(err.value) == "line 5: non-finite value in '2:inf'"
        # a line that repeats the last index of the line before it is fine
        path = write_lines(tmp_path / "again.libsvm", ["+1 1:1 4:1", "-1 4:2"])
        np.testing.assert_array_equal(load_dataset(path).features,
                                      [[1, 0, 0, 1], [0, 0, 0, 2]])

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        path = write_lines(tmp_path / "data.libsvm",
                           ["+1 1:1", f"-1 2:{value}"])
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == f"line 2: non-finite value in '2:{value}'"

    def test_too_large_index_names_its_line(self, tmp_path):
        path = write_lines(tmp_path / "data.libsvm",
                           ["+1 1:1", "-1 99999999999999999999:2"])
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == ("line 2: feature index 99999999999999999999 "
                                  "is too large; it must be at most 2**63 - 1")
