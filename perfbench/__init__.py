"""Outside-in benchmark of the mvml library; run ``python3 perfbench/run.py --help``."""
