"""The README's library example and command-line block run as written."""

import re
import shlex
from pathlib import Path

from pumpsim import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    scn, params_980 = namespace["scn"], namespace["params_980"]
    assert params_980.e_photon_pump > scn.params.e_photon_pump
    assert "PulseMetrics" in capsys.readouterr().out


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    blocks = [b for b in re.findall(r"^```sh\n(.*?)^```", text,
                                    re.DOTALL | re.MULTILINE)
              if "pumpsim budget" in b]
    assert len(blocks) == 1
    commands = [shlex.split(line) for line in blocks[0].splitlines()
                if line.startswith("pumpsim ")]
    assert [argv[1] for argv in commands] == [
        "simulate", "simulate", "lcurve", "dqe", "sweep", "fit", "budget"]
    printed = re.search(r"The last command prints:\n\n```\n(.*?)^```", text,
                        re.DOTALL | re.MULTILINE).group(1)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
    assert capsys.readouterr().out == printed
