import numpy as np
import pytest

from aogd.ingest import (Dataset, ParseError, SparseExample, load_dataset,
                         parse_libsvm_line, serialize_example)

FIXTURE = """\
+1 1:0.5 3:-1.25
-1 2:2 4:0.125   # trailing comment
0 1:1.5
1   3:0.75
"""


class TestParseLine:
    def test_basic(self):
        ex = parse_libsvm_line("+1 1:0.5 3:-1.25")
        assert ex.label == 1
        assert ex.features == ((1, 0.5), (3, -1.25))

    @pytest.mark.parametrize("raw,expected", [("0", -1), ("-1", -1),
                                              ("1", 1), ("+1", 1)])
    def test_label_mapping(self, raw, expected):
        assert parse_libsvm_line(f"{raw} 1:1").label == expected

    def test_comment_stripped(self):
        ex = parse_libsvm_line("-1 2:3 # note")
        assert ex.features == ((2, 3.0),)

    def test_label_only(self):
        assert parse_libsvm_line("+1").features == ()

    def test_extra_whitespace(self):
        ex = parse_libsvm_line("  1   2:1.0    5:2.0  ")
        assert ex.features == ((2, 1.0), (5, 2.0))

    @pytest.mark.parametrize("line,fragment", [
        ("", "empty"),
        ("   # only comment", "empty"),
        ("2 1:1", "label"),
        ("+1 1:1 1:2", "non-increasing"),
        ("+1 3:1 2:2", "non-increasing"),
        ("+1 0:1", "non-increasing"),
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
        ex = SparseExample(label=-1, features=((1, 0.5), (7, -3.0)))
        assert parse_libsvm_line(serialize_example(ex)) == ex

    def test_random_examples(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            idxs = np.sort(rng.choice(np.arange(1, 30), size=5, replace=False))
            feats = tuple((int(i), float(round(rng.normal(), 4))) for i in idxs)
            ex = SparseExample(label=int(rng.choice([-1, 1])), features=feats)
            assert parse_libsvm_line(serialize_example(ex)) == ex


class TestLoadDataset:
    def write_fixture(self, tmp_path, text=FIXTURE):
        path = tmp_path / "data.libsvm"
        path.write_text(text)
        return str(path)

    def test_full_load(self, tmp_path):
        ds = load_dataset(self.write_fixture(tmp_path))
        assert len(ds.examples) == 4
        assert ds.d == 4
        labels, features = ds.dense()
        np.testing.assert_array_equal(labels, [1, -1, -1, 1])
        assert features.shape == (4, 4)
        assert features[0, 2] == -1.25
        assert features[1, 3] == 0.125
        assert features[3, 2] == 0.75

    def test_max_rows(self, tmp_path):
        ds = load_dataset(self.write_fixture(tmp_path), max_rows=2)
        assert len(ds.examples) == 2
        assert ds.d == 4

    @pytest.mark.parametrize("max_rows", [0, -1, -5])
    def test_max_rows_below_one_rejected(self, tmp_path, max_rows):
        with pytest.raises(ParseError, match="max_rows"):
            load_dataset(self.write_fixture(tmp_path), max_rows=max_rows)

    def test_dim_hint(self, tmp_path):
        ds = load_dataset(self.write_fixture(tmp_path), dim_hint=10)
        assert ds.d == 10
        assert ds.dense()[1].shape == (4, 10)

    def test_blank_lines_skipped(self, tmp_path):
        ds = load_dataset(self.write_fixture(tmp_path, "+1 1:1\n\n\n-1 2:1\n"))
        assert len(ds.examples) == 2

    def test_error_points_at_line(self, tmp_path):
        path = self.write_fixture(tmp_path, "+1 1:1\nbroken line\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="no examples"):
            load_dataset(self.write_fixture(tmp_path, "\n\n"))

    def test_dense_matches_sparse(self, tmp_path):
        ds = load_dataset(self.write_fixture(tmp_path))
        labels, features = ds.dense()
        for i, ex in enumerate(ds.examples):
            row = np.zeros(ds.d)
            for idx, val in ex.features:
                row[idx - 1] = val
            np.testing.assert_array_equal(features[i], row)
            assert labels[i] == ex.label
