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


def _cli_section() -> str:
    return re.search(r"^## Command-line interface\n(.*?)^### ",
                     README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)[1]


def test_readme_cli_examples_run(tmp_path):
    from longpred import cli

    block = re.search(r"^```sh\n(.*?)^```", _cli_section(), re.MULTILINE | re.DOTALL)[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert [args[1] for args in lines] == list(cli._COMMANDS)
    for args in lines:
        assert args[0] == "longpred" and args[-2] == "--out", args
        assert cli.main([*args[1:-1], str(tmp_path / args[1])]) == 0, args


def test_readme_flag_lists_match_the_parsers():
    from longpred import cli

    listed = {name: re.findall(r"`(--\w+)`", flags)
              for name, flags in re.findall(r"^- `(\w+)`: (.*)$", _cli_section(), re.MULTILINE)}
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    assert set(listed) == set(subparsers)
    for name, parser in subparsers.items():
        options = [a.option_strings[-1] for a in parser._actions if a.dest != "help"]
        assert options == ["--config", "--out", *listed[name]], name
