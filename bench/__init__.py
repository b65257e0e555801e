"""The repository benchmark (see README.md); run with ``python bench/run.py``."""
