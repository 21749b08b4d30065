"""The three LAPACK routines the package calls, without the ``scipy.linalg`` package.

``hjb`` solves its tridiagonal systems with ``dgtsv``; ``density`` factors and
solves its covariances with ``dpotrf``/``dpotrs``.  These are the f2py wrappers
of the extension module ``scipy.linalg._flapack``, the very objects
``scipy.linalg.lapack`` exports.  Loading that one file skips the Python
package around it, whose imports (most of all ``scipy._lib.array_api_compat``)
cost about 0.2 s and 17 MB per process.  ``import scipy`` still runs scipy's
own platform set-up first.  The module is registered under its own name, so a
later ``import scipy.linalg`` reuses it rather than initializing the extension
twice (``scipy.linalg`` then lacks the attribute ``_flapack``, but ``from
scipy.linalg import _flapack`` finds the module).  Where the file is not
found, the public ``scipy.linalg.lapack`` serves.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import scipy

_FLAPACK = "scipy.linalg._flapack"


def _flapack():
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    spec = PathFinder.find_spec(_FLAPACK, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_FLAPACK]
        raise
    return module


_module = _flapack()
dgtsv, dpotrf, dpotrs = _module.dgtsv, _module.dpotrf, _module.dpotrs
