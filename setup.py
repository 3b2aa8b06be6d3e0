"""Packaging metadata for the CarbonEdge reproduction.

The project is a pure-python package under ``src/`` with numpy/scipy as its
only runtime dependencies (the placement MILP is solved by scipy's HiGHS
``milp``, so everything works offline). ``pip install -e .``
installs the ``repro`` package plus the ``carbon-edge-quickstart`` console
command demonstrated in the README.
"""

from pathlib import Path

from setuptools import find_namespace_packages, setup

_README = Path(__file__).parent / "README.md"

setup(
    name="carbonedge-repro",
    version="0.3.0",
    description=(
        "Reproduction of CarbonEdge: carbon-aware application placement across "
        "edge data centers, with a pluggable solver-backend registry and a "
        "declarative experiment registry driven by a sharded parallel runner"
    ),
    long_description=_README.read_text(encoding="utf-8") if _README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    # ``src/repro`` has no ``__init__.py`` (a namespace package), which
    # ``find_packages`` skips together with everything below it.
    packages=find_namespace_packages(where="src", include=["repro", "repro.*"]),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
        "scipy>=1.9",
    ],
    extras_require={
        # setuptools: tests/test_packaging.py runs setup.py through
        # distutils, which Python 3.12 no longer bundles.
        "test": ["pytest", "pytest-benchmark", "hypothesis", "setuptools"],
    },
    entry_points={
        "console_scripts": [
            "carbon-edge = repro.cli:carbon_edge_main",
            "carbon-edge-quickstart = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 3 - Alpha",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
)
