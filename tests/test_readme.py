"""Every `orlicztf ...` example of README.md runs, in document order."""

import json
import os
import shlex

import pytest

from orlicztf import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SKIP = {("verify", "all")}  # the battery has its own test in test_acceptance.py


def _examples():
    with open(README) as fh:
        text = fh.read().replace("\\\n", " ")
    argvs = []
    for line in text.splitlines():
        if line.startswith("orlicztf "):
            argv = shlex.split(line, comments=True)[1:]
            if tuple(argv[:2]) not in SKIP:
                argvs.append(argv)
    return argvs


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_readme_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argvs = _examples()
    assert len(argvs) >= 18
    for argv in argvs:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        json.loads(out, parse_constant=_reject_constant)
