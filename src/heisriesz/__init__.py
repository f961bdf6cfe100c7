"""Heisenberg group geometry, Riesz-type kernels, and self-similar measures.

The package is organised bottom-up:

* ``core``        group arithmetic, Koranyi gauge, dilations, blow-up maps
* ``measure``     weighted atomic measures, chunked sweeps, CSV round trips
* ``subgroups``   homogeneous subgroups, cones, Haar grid samples
* ``riesz``       kernels, truncated and maximal transforms, growth profiles
* ``fractal``     corner-and-offset similarity systems and their invariants
* ``diagnostics`` regularity, divergence, cone-deficiency and blow-up probes
* ``cli``         the ``heisriesz`` command line front end
"""

from .core import (
    ambient_dim,
    blowup_map,
    dilate,
    dist,
    group_index,
    group_inv,
    group_mul,
    koranyi_norm,
    symplectic_form,
)
from .measure import AtomCapExceeded, DEFAULT_ATOM_CAP, DiscreteMeasure
from .subgroups import (
    SubgroupSpec,
    dist_to_subgroup,
    haar_sample,
    in_cone,
    make_horizontal,
    make_vertical,
)
from .riesz import (
    RieszParams,
    TransformResult,
    growth_profile,
    maximal_transform,
    riesz_kernel,
    truncated_transform,
    truncations,
)
from .fractal import (
    GridFunction,
    Ifs,
    Similarity,
    cycle_atom_indices,
    cylinder_measure,
    make_strichartz_ifs,
    min_piece_separation,
    phi_fixed_point,
    similarity_dimension,
    verify_invariant_region,
)
from .diagnostics import (
    AdRegularityReport,
    BoundednessReport,
    GrowthReport,
    HorestReport,
    ad_regularity_report,
    blowup_measure,
    cone_deficiency,
    divergence_probe,
    horest_check,
    subgroup_boundedness_probe,
)

__version__ = "0.1.0"
