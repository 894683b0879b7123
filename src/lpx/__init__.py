"""Multiscale square functions, maximal operators, and function-space norms
on periodic grids, with an experiment harness for their norm equivalences."""

from .grid import (
    GridSpec,
    HalfSpaceField,
    SampledFunction,
    ScaleGrid,
)
from .kernels import (
    Kernel,
    KernelKind,
    ReproducingPair,
    build_annular_kernel,
    build_weak_kernel,
    calderon_companion,
    reproduce,
)
from .maximal import (
    BallFamily,
    hardy_norm,
    hl_maximal,
    peetre_maximal,
)
from .spaces import (
    ExponentFunction,
    Lebesgue,
    MixedNorm,
    Morrey,
    OrliczFunction,
    OrliczSlice,
    VariableLebesgue,
    Weight,
    WeightedLebesgue,
    ap_characteristic,
    critical_index,
    orlicz_norm,
    space_norm,
)
from .squarefuncs import g_function, g_lambda_star, lusin_area, tent_functional
from .atoms import (
    Molecule,
    TentAtom,
    TentDecomposition,
    synthesize_molecule,
    tent_decompose,
)
from .transforms import ConvolutionPlan, build_field, build_plan, convolve_at_scale

__version__ = "0.1.0"
