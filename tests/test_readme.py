"""README's examples, run in process: each `$ statecomp ...` line whose
output README prints must print exactly that, and the Library code
block must run."""

import re
import shlex
from pathlib import Path

import pytest

from statecomp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)


def _examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) for each `$ statecomp` line followed by its output;
    an output with a `...` placeholder is not one to compare."""
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *output = chunk.splitlines()
            argv = shlex.split(command, comments=True)
            if argv[0] == "statecomp" and output and "..." not in chunk:
                examples.append((argv[1:], "".join(line + "\n" for line in output)))
    return examples


EXAMPLES = _examples()


def test_examples_are_found():
    assert [argv[0] for argv, _ in EXAMPLES] == ["sc", "sc", "sc", "verify", "search"]


@pytest.mark.parametrize(
    "argv, stdout", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_example_prints_what_readme_shows(capsys, tmp_path, monkeypatch, argv, stdout):
    monkeypatch.chdir(tmp_path)  # search writes its argmax files here
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_library_block_runs():
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
