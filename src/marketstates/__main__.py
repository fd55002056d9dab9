"""``python -m marketstates``: the same entry point as the console script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
