"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})


def test_readme_config_block_matches_the_parsers(tmp_path):
    from longpred import config

    block = re.search(r"^### Configuration files\n.*?^```\n(.*?)^```",
                      README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    config.load_config(path).model()
    for key in config._PARSERS:
        assert re.search(rf"^#?\s*{key}\s*=", block, re.MULTILINE), key
        assert re.search(rf"^\s+{key}\s", config.__doc__, re.MULTILINE), key
