"""Tests for the real-criu subprocess driver (dry-run / argv planning)."""

import pytest

from repro.criu.cli import CriuCli, CriuUnavailableError


@pytest.fixture
def cli():
    return CriuCli(criu_path="/usr/sbin/criu", dry_run=True)


class TestAvailability:
    def test_unavailable_without_binary(self):
        cli = CriuCli(criu_path=None)
        cli.criu_path = None  # even if which() found one, force absence
        assert not cli.available
        with pytest.raises(CriuUnavailableError):
            cli.require()

    def test_available_with_path(self, cli):
        assert cli.available
        assert cli.require() == "/usr/sbin/criu"


class TestDumpArgv:
    def test_default_flags(self, cli):
        argv = cli.dump_argv(1234, "/tmp/images")
        assert argv[:3] == ["/usr/sbin/criu", "dump", "-t"]
        assert "1234" in argv
        assert "-D" in argv and "/tmp/images" in argv
        assert "--leave-running" in argv
        assert "--shell-job" in argv

    def test_no_leave_running(self, cli):
        argv = cli.dump_argv(1, "/d", leave_running=False)
        assert "--leave-running" not in argv

    def test_track_mem_and_prev_images(self, cli):
        argv = cli.dump_argv(1, "/d", track_mem=True, prev_images_dir="/prev")
        assert "--track-mem" in argv
        assert argv[argv.index("--prev-images-dir") + 1] == "/prev"

    def test_tcp_established(self, cli):
        assert "--tcp-established" in cli.dump_argv(1, "/d", tcp_established=True)


class TestRestoreArgv:
    def test_default_flags(self, cli):
        argv = cli.restore_argv("/tmp/images")
        assert argv[:2] == ["/usr/sbin/criu", "restore"]
        assert "--restore-detached" in argv
        assert "--shell-job" in argv

    def test_lazy_pages(self, cli):
        assert "--lazy-pages" in cli.restore_argv("/d", lazy_pages=True)

    def test_check_argv(self, cli):
        assert cli.check_argv() == ["/usr/sbin/criu", "check"]


class TestDryRunExecution:
    def test_dry_run_records_invocations(self, cli):
        result = cli.check()
        assert result.ok and result.stdout == ""
        assert cli.invocations == [["/usr/sbin/criu", "check"]]

    def test_dry_run_dump_and_restore(self, cli):
        cli.dump(42, "/tmp/x")
        cli.restore("/tmp/x")
        assert len(cli.invocations) == 2
        assert cli.invocations[0][1] == "dump"
        assert cli.invocations[1][1] == "restore"

    def test_real_execution_requires_binary(self):
        cli = CriuCli(criu_path=None, dry_run=False)
        cli.criu_path = None
        with pytest.raises(CriuUnavailableError):
            cli.check()
