"""The README's examples stay runnable: the quick tour executes, and every
`oppwalk ...` command line parses with the CLI's own parser.  Its CLI flags
table names exactly the options each subcommand takes."""
import argparse
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


def subcommand_options():
    """{subcommand: its option strings}, from the CLI's own parser."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: {s for a in p._actions for s in a.option_strings
                   if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()}


def flags_table():
    """The range flags and the {subcommand: flags} rows of the README's
    "Flags beyond each subcommand's own ranges" table."""
    text = README.split("Flags beyond each subcommand's own ranges", 1)[1]
    head, rest = text.split("):", 1)
    table = re.search(r"\n\|.*?\n(?:\|.*\n)+", rest).group(0)
    rows = {}
    for line in table.strip().splitlines()[2:]:
        kinds, flags = line.strip("|").split("|")
        for kind in re.findall(r"`([\w-]+)`", kinds):
            assert kind not in rows, f"{kind} has two rows"
            rows[kind] = set(re.findall(r"`(--[\w-]+)`", flags))
    return set(re.findall(r"`(--[\w-]+)`", head)), rows


def test_flags_table_matches_parser():
    ranges, rows = flags_table()
    options = subcommand_options()
    assert set(rows) == set(options)
    for kind, flags in rows.items():
        assert flags <= options[kind], f"{kind}: no such flag"
        assert options[kind] - ranges <= flags, f"{kind}: flag missing"
