"""``python -m pumpsim``: the same command line as the ``pumpsim`` script."""

from .cli import entrypoint

entrypoint()
