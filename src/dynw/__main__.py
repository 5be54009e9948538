"""`python -m dynw`: the dynw command line (see dynw.cli)."""

from .cli import main

main()
