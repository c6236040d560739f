"""The CLI listing of tools/cli_digests.py, run in-process, against the
golden file tests/cli_listing.txt."""

import contextlib
import importlib.util
import io
import warnings
from pathlib import Path

import pytest

from newsmarket.cli import main

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
_spec = importlib.util.spec_from_file_location("cli_digests", _TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

GOLDEN = Path(__file__).with_name("cli_listing.txt")
_MARK = "# fingerprint: "


def _in_process(argv):
    """One call through cli.main as `python -m newsmarket` makes it: exit
    status, stdout bytes, stderr text; warnings are shown, not raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as stop:          # argparse: --help, usage errors
            code = stop.code
    return code, out.getvalue().encode(), err.getvalue()


def test_the_cli_listing_is_the_golden_file(tmp_path, monkeypatch):
    # the bytes of every output hold per platform (libm's tanh and numpy
    # can move last bits), so another platform skips; the file is never
    # rewritten here
    head, *want = GOLDEN.read_text().splitlines()
    have = digests.fingerprint()
    if head != _MARK + have:
        pytest.skip(f"golden listing taken on {head[len(_MARK):]}; "
                    f"this platform is {have}")
    for name, text in digests.INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NEWSMARKET_WORKERS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    assert digests.listing(tmp_path, _in_process) == want
