"""README's code must run as written."""

import re
import shlex
from pathlib import Path

from linerig.cli import build_parser, parse_args

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name} (Library example)", "exec"), {})


def test_command_line_examples_parse():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = [line for block in re.findall(r"```\n(.*?)```", section, re.S)
                for line in block.splitlines() if line.startswith("linerig ")]
    assert len(commands) >= 15
    for line in commands:
        words = shlex.split(line, comments=True)[1:]
        if ">" in words:  # drop the shell's output redirection
            words = words[:words.index(">")]
        # main parses with the named leaf's parser alone, to the same namespace
        assert parse_args(words) == build_parser().parse_args(words)
