"""Tests for the reproduction-report assembler."""


import pytest

from repro.bench.experiments_writer import (
    collect_sections,
    main,
    write_report,
)


@pytest.fixture
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "fig3_startup.txt").write_text("FIG3 TABLE\n")
    (directory / "zz_custom.txt").write_text("CUSTOM TABLE\n")
    (directory / "table1_intervals.txt").write_text("T1 TABLE\n")
    return directory


class TestCollect:
    def test_known_sections_ordered_first(self, results_dir):
        sections = collect_sections(results_dir)
        ids = [s.experiment_id for s in sections]
        assert ids == ["fig3_startup", "table1_intervals", "zz_custom"]

    def test_titles_resolved(self, results_dir):
        sections = collect_sections(results_dir)
        assert sections[0].title.startswith("Figure 3")
        assert sections[-1].title == "zz custom"

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_sections(tmp_path / "nope")


class TestWriteReport:
    def test_report_contains_all_bodies(self, results_dir):
        report = write_report(results_dir)
        assert "FIG3 TABLE" in report
        assert "CUSTOM TABLE" in report
        assert report.startswith("# Reproduction report")

    def test_writes_output_file(self, results_dir, tmp_path):
        out = tmp_path / "report.md"
        write_report(results_dir, out)
        assert "T1 TABLE" in out.read_text()

    def test_empty_dir_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError, match="no \\*.txt"):
            write_report(empty)


class TestCli:
    def test_prints_report(self, results_dir, capsys):
        assert main([str(results_dir)]) == 0
        assert "FIG3 TABLE" in capsys.readouterr().out

    def test_writes_file(self, results_dir, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main([str(results_dir), str(out)]) == 0
        assert out.exists()

    def test_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_dir_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing")]) == 1
