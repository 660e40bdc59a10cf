"""README examples, replayed byte for byte."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from xfan import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang, marker):
    """The first fenced block of a language whose body contains marker."""
    for body in re.findall(rf"```{lang}\n(.*?)```", README, re.S):
        if marker in body:
            return body
    raise AssertionError(f"README has no {lang} block containing {marker!r}")


def _transcripts():
    """(argv, expected stdout) for every `$ xfan ...` line of the README."""
    lines = _block("sh", "$ xfan").splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("$ xfan "):
            out.append((shlex.split(line[len("$ xfan "):]), lines[i + 1] + "\n"))
    return out


def test_cli_transcripts(tmp_path, monkeypatch, capsys):
    (tmp_path / "a3.json").write_text(_block("json", '"B"'))
    pair = re.search(r"`pair.json` holds `(\{.*?\})`", README).group(1)
    (tmp_path / "pair.json").write_text(pair)
    monkeypatch.chdir(tmp_path)
    transcripts = _transcripts()
    assert len(transcripts) == 6
    for argv, expected in transcripts:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected


def test_library_snippet(capsys):
    code = _block("python", "from xfan import")
    expected = "".join(
        line.split("#", 1)[1].strip() + "\n"
        for line in code.splitlines()
        if line.startswith("print(")
    )
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == expected
