import importlib
import pathlib
import pkgutil
import re
import shlex

import hlvc
from hlvc import cli, data

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert namespace["state"].step == 300
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


def test_named_objects_exist():
    """Every backticked dotted name in README's prose that starts with
    ``hlvc``, one of its modules or one of their classes (``data.Shard``,
    ``features.BLOCK_ROWS``, ``Shard.features``) resolves attribute by
    attribute."""
    modules = {
        info.name: importlib.import_module(f"hlvc.{info.name}")
        for info in pkgutil.iter_modules(hlvc.__path__)
    }
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    checked = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[^`\n]*`", prose):
        head, *path = name.split(".")
        if head == "hlvc":
            obj = hlvc
        elif head in modules:
            obj = modules[head]
        elif head[0].isupper():
            classes = [getattr(m, head) for m in modules.values()
                       if isinstance(getattr(m, head, None), type)]
            assert classes, f"README names {name}, but no hlvc module defines class {head}"
            obj = classes[0]
        else:
            continue
        for attr in path:
            assert hasattr(obj, attr), f"README names {name}, which does not resolve"
            obj = getattr(obj, attr)
        checked.append(name)
    assert "data.video_feature" in checked and "Shard.features" in checked


def test_shard_version_matches_the_code():
    """The "Shards" section's layout table and its version-error example
    both name ``data.SHARD_VERSION``."""
    section = README.read_text(encoding="utf-8").split("### Shards", 1)[1].split("\n### ", 1)[0]
    current = re.findall(r"format version, u16 \(currently (\d+)\)", section)
    expected = re.findall(r"unsupported version \d+, expected (\d+)", section)
    assert current and expected
    assert {int(v) for v in current + expected} == {data.SHARD_VERSION}
