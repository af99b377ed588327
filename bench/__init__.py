"""The PyPIM stack's end-to-end benchmark (see ``bench/README.md``).

``BENCHMARK.json`` at the repository root names the workloads and
metrics; ``python3 bench/run.py`` measures them. Everything here drives
the stack through its public entry points only and edits no file outside
``bench/``.
"""
