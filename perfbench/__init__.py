"""The repository benchmark: see README.md, or run ``python3 perfbench/run.py --help``."""
