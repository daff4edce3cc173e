"""The repo's single end-to-end benchmark harness (see ../README.md).

Everything here drives ``src/repro`` through its public entry points only;
nothing under ``src/`` imports this package and nothing here imports the
older ``benchmarks/bench_*.py`` scripts.
"""
