"""The repository benchmark: ``python3 bench/run.py`` (see README.md)."""
