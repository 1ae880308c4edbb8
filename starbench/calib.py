"""A fixed pure-Python kernel that measures how fast this host runs Python
right now.

The benchmark runs it between the program's operations and scales each
operation's time by ``REFERENCE_S`` over the kernel's time around it.
Import times are scaled the same way against a reference import
(``REFERENCE_MODULES``).  On a shared host the speed of the same code drifts by up to a half over seconds to
minutes (README, "Calibrated seconds"); the kernel and the program slow down
together, so the scaled times stay put where the raw ones do not.  The kernel
uses only the standard library, on the interpreter paths the program spends
its time in: ``Fraction`` arithmetic and dict traffic on tuple keys.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Kernel time in the fast state of the 2-vCPU host the README's figures come
# from.  Changing it rescales every calibrated metric, so it stays fixed once
# figures have been recorded against it.
REFERENCE_S = 0.0011


# Standard-library modules, C extensions and pure Python alike.  A fresh
# interpreter of their own imports them right before or after each import of
# the program, and the program's import time is scaled by REFERENCE_IMPORT_S
# over theirs.  Import time follows the host's state differently from the
# kernel (file reads, unmarshalling, loading C extensions), so it gets a
# reference of its own kind.  Timed apart from the program, the reference
# does not change when the program imports more or less of the standard
# library.
REFERENCE_MODULES = "asyncio, sqlite3, xml.etree.ElementTree, email.parser, http.client, unittest"
REFERENCE_IMPORT_S = 0.0729


def kernel():
    acc = Fraction(0)
    table = {}
    for k in range(1, 240):
        acc += Fraction(1, k) * Fraction(k + 1, k + 2)
        table[(k, -k, k & 7)] = acc
    return acc, table


def sample():
    """(wall, cpu) seconds of one kernel run."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    c1 = time.process_time()
    return t1 - t0, c1 - c0


def factor(samples):
    """REFERENCE_S over the median wall time of the kernel samples."""
    return REFERENCE_S / statistics.median(s[0] for s in samples)
