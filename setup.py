"""Package metadata for the Map-and-Conquer reproduction (``import repro``).

The library lives under ``src/`` and depends on numpy only.  Install it with
``pip install .`` (or ``pip install -e .``), or skip the install and run from
a checkout with ``PYTHONPATH=src``.  Keep ``version`` equal to
``repro.__version__``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.5.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
