"""Build script: compiles the optional Cython kernel extension.

The package is fully functional without the extension (fibl.kernels falls
back to the pure-Python twin at import time); building it makes the
window multiply/divide kernels faster, about 2x end to end on
`fibl catalan sweep --max 13` (0.33 s pure Python, 0.17 s compiled, on a
2-core x86-64 host with Python 3.11).  Any build failure is therefore
non-fatal.
"""

from setuptools import setup

ext_modules = []
try:
    from Cython.Build import cythonize
    from setuptools import Extension

    ext_modules = cythonize(
        [
            Extension(
                "fibl._kernels_c",
                ["src/fibl/_kernels_c.pyx"],
                optional=True,
            )
        ],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    pass

setup(ext_modules=ext_modules)
