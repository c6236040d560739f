"""The CLI listing of tools/cli_digests.py against the golden file
tests/cli_listing.txt, and the tool's one in-process runner."""

import subprocess
import sys
import warnings
from pathlib import Path

import cli_digests as digests
import pytest

from newsmarket import cli

GOLDEN = Path(__file__).with_name("cli_listing.txt")
_MARK = "# fingerprint: "


def test_the_cli_listing_is_the_golden_file(tmp_path):
    # the bytes of every output hold per platform (libm's tanh and numpy
    # can move last bits), so another platform skips; the file is never
    # rewritten here
    head, *want = GOLDEN.read_text().splitlines()
    have = digests.fingerprint()
    if head != _MARK + have:
        pytest.skip(f"golden listing taken on {head[len(_MARK):]}; "
                    f"this platform is {have}")
    assert digests.listing(tmp_path) == want


def test_an_uncaught_exception_is_listed_and_later_calls_run(tmp_path,
                                                              monkeypatch):
    monkeypatch.setattr(cli, "cmd_simulate_empirical", lambda args: 1 / 0)
    lines = digests.listing(tmp_path)
    assert lines[:3] == ["$ newsmarket " + digests.CALLS[0], "exit 1",
                         "stderr: ZeroDivisionError: division by zero"]
    assert sum(line[:2] == "$ " for line in lines) == len(digests.CALLS)
    assert any(line.endswith("  meanfield.txt") for line in lines)


def test_a_warning_is_shown_on_stderr_not_raised(monkeypatch):
    # pytest records warnings, and the runner once left them there
    monkeypatch.setattr(cli, "cmd_stats", lambda args: warnings.warn(
        "probe", RuntimeWarning))
    code, _, err = digests._call("stats moments --input x --out y".split())
    assert code == 0 and "RuntimeWarning: probe" in err


def test_the_tool_refuses_a_src_without_newsmarket(tmp_path):
    # conftest puts the in-tree src on PYTHONPATH, so the import would
    # fall through to it
    proc = subprocess.run([sys.executable, digests.__file__, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert str(tmp_path.resolve()) in proc.stderr
