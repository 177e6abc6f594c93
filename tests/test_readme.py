"""README.md against the package: the names it gives and the output it shows."""

import re
from pathlib import Path

import qglab
from qglab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_resolve():
    names = sorted(set(re.findall(r"qglab\.([A-Za-z_][\w.]*\w)", README.read_text())))
    assert names
    missing = []
    for name in names:
        obj = qglab
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"qglab.{name}")
    assert not missing


def test_readme_resonances_example(capsys):
    text = README.read_text()
    command = "$ qglab resonances src/qglab/data/dumbbell.qg --lambda-max 14\n"
    shown = text[text.index(command) + len(command):]
    shown = shown[:shown.index("```")]
    argv = command.split()[2:]
    argv[1] = str(README.parent / argv[1])
    assert main(argv) == 0
    assert capsys.readouterr().out == shown
