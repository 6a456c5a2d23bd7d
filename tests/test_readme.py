"""The README's library example runs as documented, and its command-line examples print
what it shows."""

import re
import shlex
from pathlib import Path

from votaudit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_console_examples_print_what_the_readme_shows(tmp_path, monkeypatch):
    """Each heredoc file is written, then each ``$ votaudit`` line is run.  The lines shown
    under a command are its report (a trailing ``...`` stands for the rest); its exit code
    is the ``# exit N`` comment's, or 1 for a printed witness, or else 0."""
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```console\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands: list[tuple[str, list[str]]] = []
    for block in blocks:
        lines = iter(block.splitlines())
        for line in lines:
            heredoc = re.fullmatch(r"\$ cat > (\S+) <<'EOF'", line)
            if heredoc:
                body = "".join(f"{t}\n" for t in iter(lines.__next__, "EOF"))
                (tmp_path / heredoc[1]).write_text(body, encoding="utf-8")
            elif line.startswith("$ "):
                commands.append((line[2:], []))
            elif line:
                commands[-1][1].append(line)
    ran = 0
    for command, shown in commands:
        command, _, comment = command.partition("#")
        argv = shlex.split(command)
        if argv[0] != "votaudit":
            continue
        code, report = cli.run(argv[1:])
        exit_comment = re.search(r"exit (\d+)", comment)
        expected = (int(exit_comment[1]) if exit_comment
                    else 1 if "manipulation witness:" in shown else 0)
        assert code == expected, command
        if shown[-1:] == ["..."]:
            assert report.splitlines()[:len(shown) - 1] == shown[:-1], command
        elif shown:
            assert report.splitlines() == shown, command
        ran += 1
    assert ran == 9
