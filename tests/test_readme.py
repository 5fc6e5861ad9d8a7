"""The README's Quick tour transcripts, replayed through the CLI.

Each `$ termsieve ...` line in a fenced block of the Quick tour is run
from the repository root, and the lines under it, up to a blank line or
the end of the block, must be exactly what the command prints. Wall times
differ from run to run, so `wall_ms=` values are masked on both sides.
"""
import pathlib
import re
import shlex

import pytest

from termsieve.cli import cli_dispatch

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quick_tour_transcripts() -> list[tuple[list[str], list[str]]]:
    """(argv, expected stdout lines) of each transcript, in README order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("\n## Quick tour\n", 1)[1].split("\n## ", 1)[0]
    out: list[tuple[list[str], list[str]]] = []
    lines: list[str] | None = None
    in_block = False
    for line in tour.splitlines():
        if line.startswith("```"):
            in_block, lines = not in_block, None
        elif in_block and line.startswith("$ termsieve "):
            lines = []
            out.append((shlex.split(line[len("$ termsieve "):]), lines))
        elif lines is not None and line:
            lines.append(line)
        else:
            lines = None
    return out


TRANSCRIPTS = quick_tour_transcripts()


def masked(lines):
    return [re.sub(r"wall_ms=\S+", "wall_ms=*", line) for line in lines]


def test_quick_tour_runs_each_engine():
    assert [argv[0] for argv, _ in TRANSCRIPTS] == [
        "analyze", "sieve", "oracle"]


@pytest.mark.parametrize("argv, expected", TRANSCRIPTS,
                         ids=[argv[0] for argv, _ in TRANSCRIPTS])
def test_transcript_matches(argv, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert cli_dispatch(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert masked(printed) == masked(expected)
