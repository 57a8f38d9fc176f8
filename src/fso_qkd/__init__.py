"""Daylight free-space BB84 link simulator with E-band channel planning.

Import names from the submodules (``fso_qkd.linkmodel``, ``fso_qkd.protocol``,
``fso_qkd.scenario``, ...). The package root loads no numpy, so that
``fso_qkd.cli`` can set up the native runtime before numpy loads.
"""

__version__ = "0.1.0"
