import pathlib
import re
import shlex

from hlvc import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert namespace["step"] == 300
    assert namespace["report"].mean_ap > 0.9
    assert "mean_ap" in capsys.readouterr().out


def test_commands_parse():
    """Every ``hlvc ...`` command in README's fenced blocks, its continuation
    lines joined, is accepted by the CLI's parser."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("hlvc ")]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
