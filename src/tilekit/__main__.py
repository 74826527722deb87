"""`python -m tilekit ...` runs the command line, as the `tilekit` script does."""

from .cli import entry

if __name__ == "__main__":
    entry()
