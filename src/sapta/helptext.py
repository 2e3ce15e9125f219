"""The help of the command line, written from its table, ``cli._COMMANDS``.

Only ``-h`` and ``--help`` load this module.
"""
from __future__ import annotations

from types import ModuleType

__all__ = ["help_lines"]


def help_lines(cli: ModuleType, command: str | None) -> list[str]:
    """The help lines of `sapta --help`, or of `sapta COMMAND --help`: a row
    for each command, or for the command's positional and each flag.

    ``cli`` is the module that runs the command line, passed in because
    under ``python -m sapta.cli`` it is ``__main__``, not ``sapta.cli``.
    """
    if command is None:
        usage, summary = "usage: sapta COMMAND [options]", cli.__doc__.split("\n")[0]
        rows = [(name, spec[0]) for name, spec in cli._COMMANDS.items()]
    else:
        summary, positional, flags = cli._COMMANDS[command]
        usage, rows = f"usage: sapta {command} [options]", []
        if positional:
            name, takes, text = positional
            shape = {"+": f"{name} [{name} ...]", "?": f"[{name}]"}.get(takes) or "{" + ",".join(takes) + "}"
            usage += " " + shape
            rows.append((shape, text))
        rows.append(("-h, --help", "show this help message and exit"))
        for flag, default, kind, text in (*flags, cli._FORMAT):
            if kind is None:
                shape = f"{flag}, --no-{flag[2:]}" if default is True else flag
            else:
                shape = flag + " " + ("{" + ",".join(kind) + "}" if type(kind) is tuple else flag[2:].upper())
            rows.append((shape, text + (" (required)" if default is cli._REQUIRED else "")))
    return [usage, "", summary, "", *(f"  {shape:<22}  {text}" for shape, text in rows)]
