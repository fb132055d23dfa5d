"""python -m wavelifespan: the command-line interface of harness.run_cli."""

from .harness import main

if __name__ == "__main__":
    main()
