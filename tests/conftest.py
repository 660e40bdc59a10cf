"""Shared test setup.

The CLI tests run ``python -m xfan.cli`` in a child interpreter; putting the
package's source directory on its PYTHONPATH makes the child import the
same package as the tests, also from a checkout that was never installed.
"""

import os

import xfan

SRC = os.path.dirname(os.path.dirname(os.path.abspath(xfan.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
