"""README's command lines against the parser they document.

Every `ecdkit ...` line in a README code block must parse, every
`--option` README quotes in its text must be one the parser defines, and
every long option the parser defines must be named in README. So a
removed option cannot linger in the docs and a new one cannot go
undocumented. Its ```python examples run, in order, in one namespace.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from ecdkit.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def command_lines():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("ecdkit ")]


def option_strings(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from option_strings(sub)
        else:
            yield from action.option_strings


OPTIONS = sorted({o for o in option_strings(build_parser()) if o.startswith("--")})


def test_readme_has_command_lines():
    assert len(command_lines()) >= 5


@pytest.mark.parametrize("line", command_lines())
def test_command_line_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    build_parser().parse_args(argv)  # a bad option exits 2


def test_quoted_options_exist():
    quoted = {span.split()[0] for span in re.findall(r"`(--[^`]+)`", README)}
    assert quoted and quoted <= set(OPTIONS), sorted(quoted - set(OPTIONS))


def test_python_examples_run(capsys):
    # one namespace, so the squared-distance recipe reuses the library
    # example's a and b
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    printed = capsys.readouterr().out
    assert "EdgeCounts(r1=" in printed
    assert namespace["report"].graph.n_edges == 10 * (500 + 500 - 1)


@pytest.mark.parametrize("option", OPTIONS)
def test_option_is_documented(option):
    # whole options only: --dim is not found inside --dims
    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README), option
