"""Packaging for the PyPIM reproduction.

``pip install -e .`` makes the ``repro`` package importable without the
``PYTHONPATH=src`` workflow (both are documented in the README).
"""

from pathlib import Path

from setuptools import find_packages, setup

setup(
    name="pypim-repro",
    version="1.0.0",
    description=(
        "Reproduction of PyPIM (MICRO 2024): digital processing-in-memory "
        "from microarchitecture to Python tensors"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(
        encoding="utf-8"
    ),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
