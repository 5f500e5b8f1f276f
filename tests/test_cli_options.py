"""Every command-line option is read: each option's `dest` of a subcommand
appears as `args.<dest>` in that subcommand's handler."""

import argparse
import ast
import inspect
import textwrap

from uspc import cli


def unread_options(parser: argparse.ArgumentParser, commands: dict) -> list[str]:
    """`command --dest` for every option its handler in `commands` never reads."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, command_parser in sub.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(commands[name])))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"}
        unread += [f"{name} --{a.dest}" for a in command_parser._actions
                   if a.dest != "help" and a.dest not in read]
    return unread


def _reads_nothing(args) -> int:
    return 0


def _reads_size(args) -> int:
    return args.size


def test_finds_an_unread_option():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b"):
        sub.add_parser(name).add_argument("--size")
    assert unread_options(parser, {"a": _reads_nothing, "b": _reads_size}) == ["a --size"]


def test_every_cli_option_is_read_by_its_command():
    assert unread_options(cli._build_parser(), cli._COMMANDS) == []
