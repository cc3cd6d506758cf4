"""Tests for the artifact writer and the one JSONL reader."""

import json
import os
import re

import pytest

from repro.artifacts import TMP_SUFFIX, atomic_write, read_jsonl


class TestAtomicWrite:
    def test_file_appears_whole_and_no_tmp_is_left(self, tmp_path):
        path = str(tmp_path / "cell.json")
        with atomic_write(path) as handle:
            handle.write("{}")
            assert not os.path.exists(path)
        assert open(path).read() == "{}"
        assert os.listdir(tmp_path) == ["cell.json"]

    def test_failing_writer_keeps_the_previous_file(self, tmp_path):
        path = str(tmp_path / "cell.json")
        with atomic_write(path) as handle:
            handle.write("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("new, but cut short")
                raise RuntimeError("killed")
        assert open(path).read() == "old"
        assert not os.path.exists(path + TMP_SUFFIX)


class TestReadJsonl:
    def write(self, tmp_path, text):
        path = tmp_path / "rows.jsonl"
        path.write_text(text)
        return str(path)

    def test_rows_in_order_skipping_blank_lines(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": [3]}]
        path = self.write(tmp_path, "\n" + "\n  \n".join(json.dumps(r) for r in rows) + "\n")
        assert read_jsonl(path, required=("a",)) == rows

    def test_non_object_line_names_its_line(self, tmp_path):
        path = self.write(tmp_path, '{"a": 1}\n\n"text"\n')
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:3: not a JSON object$"):
            read_jsonl(path)

    def test_missing_fields_are_all_named(self, tmp_path):
        path = self.write(tmp_path, '{"a": 1}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:1: missing field b, c$"):
            read_jsonl(path, required=("a", "b", "c"))
