"""The README's examples stay runnable: the quick tour executes, and every
`oppwalk ...` command line parses with the CLI's own parser."""
import re
import shlex
from pathlib import Path

import pytest

from oppwalk import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def oppwalk_commands():
    lines = []
    for block in blocks("sh"):
        lines += block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("oppwalk ")]


def test_quick_tour_runs():
    (tour,) = blocks("python")
    exec(compile(tour, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", oppwalk_commands(), ids=shlex.join)
def test_cli_example_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.kind == argv[0]
