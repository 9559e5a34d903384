import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ])
    def test_rejects_bad_lines(self, line, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_libsvm_line(line, lineno=7)

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
