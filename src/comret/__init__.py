"""comret: co-modality retrieval with normalized late score fusion.

Pages carry one image embedding and one parsed-text embedding; queries
are scored against both by inner product, the two score channels are
normalized per query (logistic squash then population z-score) and
blended, and the ranking is evaluated with standard retrieval metrics.
A toy trainer for the pairwise sigmoid alignment objective is included.
The package is pure Python on NumPy, with one scoring path.
``KERNEL_BACKEND`` names it: ``"numpy+blas-cap"`` when multi-threaded
sweeps can hold NumPy's bundled OpenBLAS at one thread, else ``"numpy"``.
"""

from . import _kernels
from .core import (
    MODES,
    FusionConfig,
    QueryRecord,
    RankedEntry,
    RankedResult,
)
from .errors import ComretError
from .fusion import (
    blend,
    retrieve,
    zscore_normalize,
)
from .metrics import evaluate_run, hit_at_k, mrr_at_k, ndcg_at_k, recall_at_k
from .store import IndexDirectory, PackedMatrix, build_index, load_index, save_index

__version__ = "0.1.0"

__all__ = [
    "MODES",
    "ComretError",
    "FusionConfig",
    "IndexDirectory",
    "PackedMatrix",
    "QueryRecord",
    "RankedEntry",
    "RankedResult",
    "blend",
    "build_index",
    "evaluate_run",
    "hit_at_k",
    "load_index",
    "mrr_at_k",
    "ndcg_at_k",
    "recall_at_k",
    "retrieve",
    "save_index",
    "zscore_normalize",
    "__version__",
]


def __getattr__(name: str) -> str:
    # Looked up on first use, so importing the package opens no library.
    if name == "KERNEL_BACKEND":
        return "numpy" if _kernels.blas_cap() is None else "numpy+blas-cap"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
