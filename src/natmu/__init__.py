"""Machine unlearning toolkit: hybrid-injection unlearning, relabeling
baselines, a retrain oracle, and an entropy-based evaluation suite."""

import os
import sys

# One BLAS thread unless the environment asks for another count: the models
# are too small for a second thread to pay for itself, and results do not
# depend on the count. BLAS reads these once, when numpy first loads, so
# BLAS_THREADS keeps the values it read (None: unset): natmu's defaults when
# numpy loads after natmu, else the values found here.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")
if "numpy" not in sys.modules:
    BLAS_THREADS = {name: os.environ[name] for name in BLAS_THREAD_VARIABLES}

__version__ = "0.1.0"

from . import builder, data, masks, methods, metrics, nn  # noqa: E402, F401
