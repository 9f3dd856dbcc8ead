"""The README's library example runs as written."""

import re
from pathlib import Path

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
