"""Transform-domain tensor-tensor products, *_L-SVD and low-rank completion."""

from types import ModuleType as _ModuleType

from .core import (
    facewise_product,
    fro_norm,
    inner_product,
    mode_n_fold,
    mode_n_product,
    mode_n_unfold,
    num_rep,
    rep_matrix,
)
from .transforms import (
    TransformSpec,
    apply_l,
    apply_l_inv,
    build_cproduct_matrix,
    build_dct_matrix,
    build_fourier_matrix,
    make_spec,
)
from .linalg import (
    LFactors,
    RankReport,
    identity_tensor,
    is_orthogonal,
    l_product,
    l_transpose,
    nuclear_norm,
    ranks,
    spectral_norm,
    svt,
    t_svd,
    truncate,
)
from .completion import (
    CompletionConfig,
    CompletionTrace,
    pga_complete,
    project_omega,
    psnr,
    rse,
    sample_mask,
)
from .io import export_ppm_dir, import_ppm_dir, read_container, write_container

# the public functions and classes; the submodules imported above are left out
# (a star import would bind `io` over the standard library's)
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
