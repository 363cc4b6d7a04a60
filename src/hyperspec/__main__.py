"""``python -m hyperspec``: the same command line as the ``hyperspec`` script."""

from hyperspec.cli import run

if __name__ == "__main__":
    run()
