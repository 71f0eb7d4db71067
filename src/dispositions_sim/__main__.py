"""The process entry of ``dispositions-sim`` and ``python -m dispositions_sim``."""

import gc
import sys


def run() -> None:
    """Run the CLI on ``sys.argv`` and exit with its code. What a CLI process
    loads, numpy and the parser among it, lives until exit, so the cyclic
    collector is off from the start and the heap is frozen before exit: the
    collections at shutdown then walk nothing. ``cli.main`` leaves the
    collector as its caller set it."""
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
